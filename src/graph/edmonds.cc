#include "graph/edmonds.h"

#include <limits>
#include <numeric>

#include "support/error.h"

namespace rock::graph {

namespace {

/** Contractions performed on this thread
 *  (thread_contraction_tally()). */
thread_local std::uint64_t tls_contraction_tally = 0;

/** One input edge as the solver sees it: endpoints and weight at the
 *  current contraction level, plus the input edge it stands for. */
struct WorkEdge {
    int src = 0;
    int dst = 0;
    double weight = 0.0;
    int input = 0;     ///< index of the input edge
    int input_dst = 0; ///< that edge's input-level head
};

/** A chosen in-edge, named by its input edge. */
struct Pick {
    int input = -1;
    int input_dst = -1;
};

/** What unwinding needs from one contracted level: O(V) each. */
struct Level {
    std::vector<Pick> in_pick;  ///< per level node: cheapest in-edge
    std::vector<int> cycle_id;  ///< per level node: its cycle, or -1
    std::vector<int> node_of;   ///< per input node: its node here
    int num_cycles = 0;
};

/** What a certified solve records besides its picks. */
struct Duals {
    /** Per input edge: its reduced weight (ForestCertificate). */
    std::vector<double> reduced;
    /** Contraction levels the solve went through. */
    int levels = 0;
};

/**
 * Chu-Liu/Edmonds as a loop over one working edge array, compacted in
 * place at every contraction level. Returns the input indices of the
 * chosen in-edges, one per non-root node, or nullopt when some node
 * has no incoming edge at all.
 *
 * Every pick follows one fixed order: the first minimum in-edge in
 * edge order, cycles numbered in start-order discovery, non-cycle
 * nodes numbered before supernodes, and reduced weights computed by
 * one subtraction each. The chosen list holds the deepest level's
 * in-edges by node, then each shallower level's non-entry cycle
 * edges, deepest first; callers sum weights in that order.
 *
 * With @p duals, each input edge's reduced weight is its weight at the
 * level that drops it as internal to a cycle, or at the last level,
 * minus its head's cheapest in-edge weight there. Recording it reads
 * what the solve computes anyway and changes no pick. @p count adds
 * the contractions to thread_contraction_tally().
 */
std::optional<std::vector<int>>
solve(int n, int root, std::vector<WorkEdge>& work, Duals* duals,
      bool count)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto idx = [](int i) { return static_cast<std::size_t>(i); };

    std::vector<int> node_of(idx(n));
    std::iota(node_of.begin(), node_of.end(), 0);
    std::vector<Level> levels;
    std::vector<Pick> chosen;
    std::vector<int> in_pos;
    std::vector<double> in_w;
    std::vector<int> color;
    std::vector<int> comp;
    while (true) {
        // Cheapest in-edge per node (deterministic: first minimum wins).
        in_pos.assign(idx(n), -1);
        in_w.assign(idx(n), kInf);
        for (std::size_t i = 0; i < work.size(); ++i) {
            const WorkEdge& e = work[i];
            if (e.dst == root || e.src == e.dst)
                continue;
            if (e.weight < in_w[idx(e.dst)]) {
                in_w[idx(e.dst)] = e.weight;
                in_pos[idx(e.dst)] = static_cast<int>(i);
            }
        }
        for (int v = 0; v < n; ++v) {
            if (v != root && in_pos[idx(v)] < 0)
                return std::nullopt;
        }
        const auto pred = [&](int v) {
            return work[idx(in_pos[idx(v)])].src;
        };

        // Detect cycles in the picked-edge functional graph.
        Level level;
        level.cycle_id.assign(idx(n), -1);
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
                    level.cycle_id[idx(u)] = level.num_cycles;
                    u = pred(u);
                } while (u != v);
                ++level.num_cycles;
            }
            // Seal the walked path.
            int u = start;
            while (u != root && color[idx(u)] == 1) {
                color[idx(u)] = 2;
                u = pred(u);
            }
        }

        if (level.num_cycles == 0) {
            if (duals) {
                for (const WorkEdge& e : work) {
                    duals->reduced[idx(e.input)] =
                        e.dst == root ? kInf : e.weight - in_w[idx(e.dst)];
                }
                duals->levels = static_cast<int>(levels.size());
            }
            chosen.reserve(idx(n) - 1);
            for (int v = 0; v < n; ++v) {
                if (v != root) {
                    const WorkEdge& e = work[idx(in_pos[idx(v)])];
                    chosen.push_back({e.input, e.input_dst});
                }
            }
            break;
        }

        // Each detected cycle becomes one supernode contraction; the
        // count is a pure function of the input graph (deterministic).
        if (count) {
            tls_contraction_tally +=
                static_cast<std::uint64_t>(level.num_cycles);
        }

        // Contract every cycle into a supernode.
        comp.assign(idx(n), -1);
        int next = 0;
        for (int v = 0; v < n; ++v) {
            if (level.cycle_id[idx(v)] < 0)
                comp[idx(v)] = next++;
        }
        const int cycle_base = next;
        level.in_pick.resize(idx(n));
        for (int v = 0; v < n; ++v) {
            if (level.cycle_id[idx(v)] >= 0)
                comp[idx(v)] = cycle_base + level.cycle_id[idx(v)];
            if (v != root) {
                const WorkEdge& e = work[idx(in_pos[idx(v)])];
                level.in_pick[idx(v)] = {e.input, e.input_dst};
            }
        }

        std::size_t kept = 0;
        for (const WorkEdge& e : work) {
            const int cu = comp[idx(e.src)];
            const int cv = comp[idx(e.dst)];
            if (cu == cv) {
                if (duals)
                    duals->reduced[idx(e.input)] = e.weight - in_w[idx(e.dst)];
                continue;
            }
            double w = e.weight;
            if (level.cycle_id[idx(e.dst)] >= 0)
                w -= in_w[idx(e.dst)];
            work[kept++] = WorkEdge{cu, cv, w, e.input, e.input_dst};
        }
        work.resize(kept);

        level.node_of = node_of;
        for (int& v : node_of)
            v = comp[idx(v)];
        root = comp[idx(root)];
        n = cycle_base + level.num_cycles;
        levels.push_back(std::move(level));
    }

    // Unwind, deepest level first: the picks so far are exactly the
    // next level's solution, so the one entering a supernode names
    // the cycle's entry node; every other cycle node keeps its
    // cheapest in-edge.
    std::vector<int> entry;
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const Level& level = *it;
        entry.assign(idx(level.num_cycles), -1);
        for (const Pick& pick : chosen) {
            const int v = level.node_of[idx(pick.input_dst)];
            const int c = level.cycle_id[idx(v)];
            if (c >= 0)
                entry[idx(c)] = v;
        }
        const int level_n = static_cast<int>(level.cycle_id.size());
        for (int v = 0; v < level_n; ++v) {
            const int c = level.cycle_id[idx(v)];
            if (c >= 0 && entry[idx(c)] != v)
                chosen.push_back(level.in_pick[idx(v)]);
        }
    }

    std::vector<int> inputs;
    inputs.reserve(chosen.size());
    for (const Pick& pick : chosen)
        inputs.push_back(pick.input);
    return inputs;
}

/** The working copy of @p graph's edges, input index = edge index. */
std::vector<WorkEdge>
work_edges(const Digraph& graph, std::size_t extra)
{
    std::vector<WorkEdge> work;
    work.reserve(graph.edges().size() + extra);
    for (std::size_t i = 0; i < graph.edges().size(); ++i) {
        const Edge& e = graph.edges()[i];
        work.push_back(
            WorkEdge{e.src, e.dst, e.weight, static_cast<int>(i), e.dst});
    }
    return work;
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
    std::vector<WorkEdge> work =
        work_edges(graph, static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
        work.push_back(WorkEdge{n, v, penalty, num_real + v, v});
    Duals duals;
    if (cert)
        duals.reduced.resize(work.size());
    auto chosen = solve(n + 1, n, work, cert ? &duals : nullptr, true);
    ROCK_ASSERT(chosen.has_value(),
                "augmented graph must always be solvable");

    Arborescence result;
    result.parent.assign(static_cast<std::size_t>(n), -1);
    double total = 0.0;
    for (int i : *chosen) {
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
        for (int i : *chosen) {
            if (i < num_real)
                cert->in_edge[static_cast<std::size_t>(
                    graph.edges()[static_cast<std::size_t>(i)].dst)] = i;
        }
        cert->reduced = std::move(duals.reduced);
        cert->penalty = penalty;
        cert->levels = duals.levels;
    }
    return result;
}

} // namespace

std::optional<Arborescence>
min_arborescence(const Digraph& graph, int root)
{
    ROCK_ASSERT(root >= 0 && root < graph.num_nodes(),
                "root out of range");
    std::vector<WorkEdge> work = work_edges(graph, 0);
    auto chosen = solve(graph.num_nodes(), root, work, nullptr, false);
    if (!chosen)
        return std::nullopt;

    Arborescence result;
    result.parent.assign(
        static_cast<std::size_t>(graph.num_nodes()), -1);
    for (int i : *chosen) {
        const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        result.weight += e.weight;
    }
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
