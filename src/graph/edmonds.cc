#include "graph/edmonds.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/error.h"

namespace rock::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Contractions performed on this thread
 *  (thread_contraction_tally()). */
thread_local std::uint64_t tls_contraction_tally = 0;

/** One entry of a node's in-edge list: the edge's weight at the
 *  current contraction level, its input index, and its input-level
 *  tail (node_of maps that to the current level). */
struct InEdge {
    double weight = kInf;
    int input = -1;
    int src = 0;
};

/** A current node: its in-edge list buf[lo, hi) and its pick, the
 *  cheapest entry of that list (input -1 while it has none). */
struct NodeState {
    int lo = 0;
    int hi = 0;
    InEdge pick;
};

/** What unwinding needs from one contracted level: O(V) each. */
struct Level {
    std::vector<int> pick;    ///< per level node: its pick's input
    std::vector<int> cycle;   ///< per level node: its cycle, or -1
    std::vector<int> node_of; ///< per input node: its level node
    int num_cycles = 0;
};

/**
 * One thread's solver buffers, reused from solve to solve so that a
 * small graph's solve allocates almost nothing; release() frees them
 * after a large one.
 */
struct Workspace {
    std::vector<NodeState> state;
    std::vector<NodeState> next;
    std::vector<InEdge> buf;
    std::vector<int> node_of;
    /** The contracted levels, levels[0, num_levels) in use. */
    std::vector<Level> levels;
    std::size_t num_levels = 0;
    std::vector<int> cycle_id;
    std::vector<int> color;
    std::vector<int> comp;
    std::vector<int> member_begin;
    std::vector<int> members;
    std::vector<int> entry;
    /** The solve's answer: input indices of the chosen in-edges. */
    std::vector<int> chosen;

    /** Free every buffer once a solve has grown them past 64 KB, so
     *  that a long-lived thread keeps no large solve's memory. */
    void release()
    {
        std::size_t ints = 4 * buf.capacity();
        for (const Level& level : levels)
            ints += level.pick.capacity() + level.cycle.capacity() +
                    level.node_of.capacity();
        if (ints > (1u << 14))
            *this = Workspace();
    }
};

thread_local Workspace tls_workspace;

/** What a certified solve records besides its picks. */
struct Duals {
    /** Per input edge: its reduced weight (ForestCertificate). */
    std::vector<double> reduced;
    /** Contraction levels the solve went through. */
    int levels = 0;
};

/**
 * Does @p e replace @p best as its head's pick? The pick is the first
 * minimum in input order: a lower weight, or an equal one at a smaller
 * input index. With no pick yet (weight +inf, input -1), only a weight
 * below +inf qualifies, so a NaN or +inf edge is never picked.
 */
bool
beats(const InEdge& e, const InEdge& best)
{
    return e.weight < best.weight ||
           (e.weight == best.weight && e.input < best.input);
}

/**
 * Slide every current node's list down to the front of @p buf, in
 * node order. The lists always lie in node order: level 0 is one run
 * per node, a contraction renumbers the surviving nodes in order and
 * appends the supernodes' lists after them, numbered last.
 */
void
compact(std::vector<NodeState>& state, std::vector<InEdge>& buf)
{
    int write = 0;
    for (NodeState& s : state) {
        // A list only ever moves down (write <= lo). One already in
        // place stays put: std::copy's destination may not start
        // inside its source.
        if (write != s.lo) {
            const auto begin = buf.begin();
            std::copy(begin + s.lo, begin + s.hi, begin + write);
        }
        s.hi = write + (s.hi - s.lo);
        s.lo = write;
        write = s.hi;
    }
    buf.resize(static_cast<std::size_t>(write));
}

/**
 * Chu-Liu/Edmonds over per-node in-edge lists. The input is
 * @p graph's edges, then, when @p penalty is set, a super-root (node
 * graph.num_nodes(), which must be @p root) with one edge of that
 * weight into every node v, input index num_edges + v. Leaves the
 * input indices of the chosen in-edges, one per non-root node, in
 * @p ws.chosen; returns false when some node has no incoming edge at
 * all.
 *
 * A contraction level changes only its supernodes: a node outside
 * every cycle keeps its list and its pick (its in-edges keep their
 * weights and their order), while a supernode's list is its members'
 * lists minus the edges internal to the cycle, each kept edge reduced
 * by its head's pick weight -- the one subtraction per level an
 * edge-array rescan gives it. So a level costs O(V) plus its
 * supernodes' in-edges, and only supernodes are re-picked. The lists
 * live in one buffer of twice the edge count, compacted in place when
 * a level's new lists would not fit.
 *
 * Every pick follows one fixed order: the first minimum in-edge in
 * input order, cycles numbered in start-order discovery, non-cycle
 * nodes numbered before supernodes, and reduced weights computed by
 * one subtraction each. The chosen list holds the deepest level's
 * in-edges by node, then each shallower level's non-entry cycle
 * edges, deepest first; callers sum weights in that order.
 *
 * With @p duals, each input edge's reduced weight is its weight at the
 * level that drops it as internal to a cycle, or at the last level,
 * minus its head's pick weight there (+inf for an edge into the root).
 * Recording it reads what the solve computes anyway and changes no
 * pick. @p count adds the contractions to thread_contraction_tally().
 */
bool
solve(const Digraph& graph, int root, const double* penalty,
      Duals* duals, bool count, Workspace& ws)
{
    const auto idx = [](int i) { return static_cast<std::size_t>(i); };
    const std::vector<Edge>& real = graph.edges();
    const int num_real = static_cast<int>(real.size());
    const auto input_dst = [&](int input) {
        return input < num_real ? real[idx(input)].dst : input - num_real;
    };
    int n = graph.num_nodes() + (penalty ? 1 : 0);

    // Level 0: one run of buf per head, in input order.
    std::vector<NodeState>& state = ws.state;
    std::vector<InEdge>& buf = ws.buf;
    state.assign(idx(n), NodeState{});
    std::size_t listed = 0;
    for (int i = 0; i < num_real; ++i) {
        const int dst = real[idx(i)].dst;
        if (dst != root) {
            ++state[idx(dst)].hi;
            ++listed;
        } else if (duals) {
            duals->reduced[idx(i)] = kInf;
        }
    }
    if (penalty) {
        for (int v = 0; v < root; ++v)
            ++state[idx(v)].hi;
        listed += idx(root);
    }
    int run = 0;
    for (NodeState& s : state) {
        s.lo = run;
        run += s.hi;
        s.hi = s.lo;
    }
    buf.clear();
    buf.reserve(2 * listed);
    buf.resize(listed);
    for (int i = 0; i < num_real; ++i) {
        const Edge& e = real[idx(i)];
        if (e.dst != root)
            buf[idx(state[idx(e.dst)].hi++)] = {e.weight, i, e.src};
    }
    if (penalty) {
        for (int v = 0; v < root; ++v)
            buf[idx(state[idx(v)].hi++)] = {*penalty, num_real + v, root};
    }
    for (int v = 0; v < n; ++v) {
        if (v == root)
            continue;
        NodeState& s = state[idx(v)];
        for (int k = s.lo; k < s.hi; ++k) {
            if (beats(buf[idx(k)], s.pick))
                s.pick = buf[idx(k)];
        }
        if (s.pick.input < 0)
            return false;
    }

    std::vector<int>& node_of = ws.node_of;
    std::vector<int>& cycle_id = ws.cycle_id;
    std::vector<int>& color = ws.color;
    std::vector<int>& comp = ws.comp;
    std::vector<int>& member_begin = ws.member_begin;
    std::vector<int>& members = ws.members;
    std::vector<int>& chosen = ws.chosen;
    node_of.resize(idx(n));
    std::iota(node_of.begin(), node_of.end(), 0);
    ws.num_levels = 0;
    chosen.clear();
    while (true) {
        const auto pred = [&](int v) {
            return node_of[idx(state[idx(v)].pick.src)];
        };

        // Detect cycles in the picked-edge functional graph.
        int num_cycles = 0;
        cycle_id.assign(idx(n), -1);
        color.assign(idx(n), 0);
        for (int start = 0; start < n; ++start) {
            if (color[idx(start)] != 0)
                continue;
            int v = start;
            while (v != root && color[idx(v)] == 0) {
                color[idx(v)] = 1;
                v = pred(v);
            }
            if (v != root && color[idx(v)] == 1) {
                // Found a new cycle; label its members.
                int u = v;
                do {
                    cycle_id[idx(u)] = num_cycles;
                    u = pred(u);
                } while (u != v);
                ++num_cycles;
            }
            // Seal the walked path.
            int u = start;
            while (u != root && color[idx(u)] == 1) {
                color[idx(u)] = 2;
                u = pred(u);
            }
        }

        if (num_cycles == 0) {
            if (duals) {
                for (int v = 0; v < n; ++v) {
                    if (v == root)
                        continue;
                    const NodeState& s = state[idx(v)];
                    for (int k = s.lo; k < s.hi; ++k) {
                        const InEdge& e = buf[idx(k)];
                        duals->reduced[idx(e.input)] =
                            e.weight - s.pick.weight;
                    }
                }
                duals->levels = static_cast<int>(ws.num_levels);
            }
            for (int v = 0; v < n; ++v) {
                if (v != root)
                    chosen.push_back(state[idx(v)].pick.input);
            }
            break;
        }

        // Each detected cycle becomes one supernode contraction; the
        // count is a pure function of the input graph (deterministic).
        if (count) {
            tls_contraction_tally +=
                static_cast<std::uint64_t>(num_cycles);
        }

        // Number non-cycle nodes first, then the supernodes; group
        // each cycle's members in node order.
        comp.assign(idx(n), -1);
        member_begin.assign(idx(num_cycles) + 1, 0);
        int next_id = 0;
        for (int v = 0; v < n; ++v) {
            if (cycle_id[idx(v)] < 0)
                comp[idx(v)] = next_id++;
            else
                ++member_begin[idx(cycle_id[idx(v)]) + 1];
        }
        const int cycle_base = next_id;
        for (int c = 0; c < num_cycles; ++c)
            member_begin[idx(c) + 1] += member_begin[idx(c)];
        members.resize(idx(member_begin[idx(num_cycles)]));
        if (ws.num_levels == ws.levels.size())
            ws.levels.emplace_back();
        Level& level = ws.levels[ws.num_levels++];
        level.pick.resize(idx(n));
        level.num_cycles = num_cycles;
        std::size_t incoming = 0;
        for (int v = 0; v < n; ++v) {
            const int c = cycle_id[idx(v)];
            level.pick[idx(v)] = state[idx(v)].pick.input;
            if (c < 0)
                continue;
            comp[idx(v)] = cycle_base + c;
            members[idx(member_begin[idx(c)]++)] = v;
            incoming += idx(state[idx(v)].hi - state[idx(v)].lo);
        }
        level.cycle.assign(cycle_id.begin(), cycle_id.end());
        level.node_of.assign(node_of.begin(), node_of.end());

        if (buf.size() + incoming > buf.capacity())
            compact(state, buf);
        std::vector<NodeState>& next = ws.next;
        next.resize(idx(cycle_base + num_cycles));
        for (int v = 0; v < n; ++v) {
            if (cycle_id[idx(v)] < 0)
                next[idx(comp[idx(v)])] = state[idx(v)];
        }
        // Each supernode's list: its members' external in-edges, in
        // member order, reduced by the member's pick weight.
        int first = 0;
        for (int c = 0; c < num_cycles; ++c) {
            NodeState& super = next[idx(cycle_base + c)];
            super = NodeState{};
            super.lo = static_cast<int>(buf.size());
            for (; first < member_begin[idx(c)]; ++first) {
                const NodeState& member =
                    state[idx(members[idx(first)])];
                const double in_w = member.pick.weight;
                for (int k = member.lo; k < member.hi; ++k) {
                    InEdge e = buf[idx(k)];
                    if (cycle_id[idx(node_of[idx(e.src)])] == c) {
                        if (duals)
                            duals->reduced[idx(e.input)] = e.weight - in_w;
                        continue;
                    }
                    e.weight -= in_w;
                    buf.push_back(e);
                    if (beats(e, super.pick))
                        super.pick = e;
                }
            }
            super.hi = static_cast<int>(buf.size());
            if (super.pick.input < 0)
                return false;
        }

        for (int& v : node_of)
            v = comp[idx(v)];
        root = comp[idx(root)];
        n = cycle_base + num_cycles;
        state.swap(next);
    }

    // Unwind, deepest level first: the picks so far are exactly the
    // next level's solution, so the one entering a supernode names
    // the cycle's entry node; every other cycle node keeps its
    // cheapest in-edge.
    std::vector<int>& entry = ws.entry;
    for (std::size_t l = ws.num_levels; l-- > 0;) {
        const Level& level = ws.levels[l];
        entry.assign(idx(level.num_cycles), -1);
        for (int input : chosen) {
            const int v = level.node_of[idx(input_dst(input))];
            const int c = level.cycle[idx(v)];
            if (c >= 0)
                entry[idx(c)] = v;
        }
        const int level_n = static_cast<int>(level.cycle.size());
        for (int v = 0; v < level_n; ++v) {
            const int c = level.cycle[idx(v)];
            if (c >= 0 && entry[idx(c)] != v)
                chosen.push_back(level.pick[idx(v)]);
        }
    }
    return true;
}

/**
 * min_forest() on @p graph; with @p cert, also its certificate. The
 * super-root n has a penalty edge to every node; its edges follow the
 * real ones in input order.
 */
Arborescence
solve_forest(const Digraph& graph, ForestCertificate* cert)
{
    const int n = graph.num_nodes();
    if (n == 0)
        return Arborescence{};
    const double penalty = graph.total_abs_weight() + 1.0;

    const int num_real = static_cast<int>(graph.edges().size());
    Duals duals;
    if (cert)
        duals.reduced.resize(graph.edges().size() +
                             static_cast<std::size_t>(n));
    Workspace& ws = tls_workspace;
    const bool solved =
        solve(graph, n, &penalty, cert ? &duals : nullptr, true, ws);
    ROCK_ASSERT(solved, "augmented graph must always be solvable");

    Arborescence result;
    result.parent.assign(static_cast<std::size_t>(n), -1);
    double total = 0.0;
    for (int i : ws.chosen) {
        if (i >= num_real) {
            ++result.num_roots;
            total += penalty;
            continue;
        }
        const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        total += e.weight;
    }
    // Real-edge weight = total minus the root penalties.
    result.weight =
        total - penalty * static_cast<double>(result.num_roots);
    if (cert) {
        cert->in_edge.assign(static_cast<std::size_t>(n), -1);
        for (int i : ws.chosen) {
            if (i < num_real)
                cert->in_edge[static_cast<std::size_t>(
                    graph.edges()[static_cast<std::size_t>(i)].dst)] = i;
        }
        cert->reduced = std::move(duals.reduced);
        cert->penalty = penalty;
        cert->levels = duals.levels;
    }
    ws.release();
    return result;
}

} // namespace

std::optional<Arborescence>
min_arborescence(const Digraph& graph, int root)
{
    ROCK_ASSERT(root >= 0 && root < graph.num_nodes(),
                "root out of range");
    Workspace& ws = tls_workspace;
    if (!solve(graph, root, nullptr, nullptr, false, ws)) {
        ws.release();
        return std::nullopt;
    }

    Arborescence result;
    result.parent.assign(
        static_cast<std::size_t>(graph.num_nodes()), -1);
    for (int i : ws.chosen) {
        const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        result.weight += e.weight;
    }
    ws.release();
    result.num_roots = 1;
    return result;
}

Arborescence
min_forest(const Digraph& graph)
{
    return solve_forest(graph, nullptr);
}

ForestCertificate
certify_min_forest(const Digraph& graph)
{
    ForestCertificate cert;
    cert.forest = solve_forest(graph, &cert);
    return cert;
}

std::uint64_t
thread_contraction_tally()
{
    return tls_contraction_tally;
}

} // namespace rock::graph
