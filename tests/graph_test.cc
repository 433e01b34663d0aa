/**
 * @file
 * Unit and property tests for the graph module: union-find,
 * Chu-Liu/Edmonds, co-optimal enumeration and the structural-ambiguity
 * test.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "support/error.h"
#include "graph/ambiguity.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "graph/enumerate.h"
#include "graph/union_find.h"
#include "support/rng.h"

namespace {

using namespace rock::graph;

// ---------------------------------------------------------------------
// Union-find / components
// ---------------------------------------------------------------------

TEST(UnionFind, BasicMerging)
{
    UnionFind uf(5);
    EXPECT_FALSE(uf.same(0, 1));
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_FALSE(uf.unite(0, 1));
    EXPECT_TRUE(uf.same(0, 1));
    uf.unite(2, 3);
    EXPECT_FALSE(uf.same(1, 2));
    uf.unite(1, 2);
    EXPECT_TRUE(uf.same(0, 3));
    EXPECT_FALSE(uf.same(0, 4));
}

TEST(Components, LabelsAreDenseAndOrdered)
{
    auto labels = connected_components(6, {{0, 2}, {2, 4}, {1, 5}});
    EXPECT_EQ(labels[0], 0);
    EXPECT_EQ(labels[2], 0);
    EXPECT_EQ(labels[4], 0);
    EXPECT_EQ(labels[1], 1);
    EXPECT_EQ(labels[5], 1);
    EXPECT_EQ(labels[3], 2);
}

TEST(Components, NoEdgesMeansSingletons)
{
    auto labels = connected_components(3, {});
    EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------
// Edmonds
// ---------------------------------------------------------------------

TEST(Edmonds, TrivialChain)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 2.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    EXPECT_EQ(arb->parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_DOUBLE_EQ(arb->weight, 3.0);
}

TEST(Edmonds, PrefersCheaperParent)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 5.0);
    g.add_edge(1, 2, 1.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    EXPECT_EQ(arb->parent[2], 1);
    EXPECT_DOUBLE_EQ(arb->weight, 2.0);
}

TEST(Edmonds, ResolvesCycle)
{
    // Greedy in-edges 1<->2 form a cycle; the algorithm must break it
    // through the root.
    Digraph g(3);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 1, 1.0);
    g.add_edge(0, 1, 10.0);
    g.add_edge(0, 2, 10.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    // One of the cheap cycle edges survives; one root edge enters.
    EXPECT_DOUBLE_EQ(arb->weight, 11.0);
    int root_children = 0;
    for (int v = 1; v < 3; ++v) {
        if (arb->parent[v] == 0)
            ++root_children;
    }
    EXPECT_EQ(root_children, 1);
}

TEST(Edmonds, UnreachableNodeFails)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    EXPECT_FALSE(min_arborescence(g, 0).has_value());
}

TEST(Edmonds, NestedCycles)
{
    // A 3-cycle of cheap edges plus expensive entries.
    Digraph g(4);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(3, 1, 1.0);
    g.add_edge(0, 1, 100.0);
    g.add_edge(0, 2, 50.0);
    g.add_edge(0, 3, 100.0);
    auto arb = min_arborescence(g, 0);
    ASSERT_TRUE(arb.has_value());
    // Enter the cycle at 2 (cheapest), keep 2->3->1.
    EXPECT_EQ(arb->parent[2], 0);
    EXPECT_EQ(arb->parent[3], 2);
    EXPECT_EQ(arb->parent[1], 3);
    EXPECT_DOUBLE_EQ(arb->weight, 52.0);
}

/** Brute-force minimum spanning arborescence via enumeration. */
double
brute_force_weight(const Digraph& g, int root)
{
    // Try all parent assignments.
    const int n = g.num_nodes();
    std::vector<std::vector<std::pair<int, double>>> in(
        static_cast<std::size_t>(n));
    for (const auto& e : g.edges())
        in[static_cast<std::size_t>(e.dst)].push_back(
            {e.src, e.weight});
    double best = std::numeric_limits<double>::infinity();
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    auto rec = [&](auto&& self, int v, double cost) -> void {
        if (v == n) {
            // Verify: all nodes reach the root.
            for (int u = 0; u < n; ++u) {
                int cur = u;
                int steps = 0;
                while (cur != root && steps <= n) {
                    cur = parent[static_cast<std::size_t>(cur)];
                    ++steps;
                    if (cur < 0)
                        return;
                }
                if (cur != root)
                    return;
            }
            best = std::min(best, cost);
            return;
        }
        if (v == root) {
            self(self, v + 1, cost);
            return;
        }
        for (const auto& [src, w] : in[static_cast<std::size_t>(v)]) {
            parent[static_cast<std::size_t>(v)] = src;
            self(self, v + 1, cost + w);
        }
        parent[static_cast<std::size_t>(v)] = -1;
    };
    rec(rec, 0, 0.0);
    return best;
}

class EdmondsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdmondsRandom, MatchesBruteForce)
{
    rock::support::Rng rng(GetParam());
    const int n = 2 + static_cast<int>(rng.index(5));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.chance(0.7)) {
                g.add_edge(u, v,
                           static_cast<double>(rng.uniform(1, 20)));
            }
        }
    }
    double brute = brute_force_weight(g, 0);
    auto arb = min_arborescence(g, 0);
    if (std::isinf(brute)) {
        EXPECT_FALSE(arb.has_value());
    } else {
        ASSERT_TRUE(arb.has_value());
        EXPECT_NEAR(arb->weight, brute, 1e-9);
        // The returned parent vector must itself be a spanning
        // arborescence with the claimed weight.
        double total = 0.0;
        for (int v = 0; v < n; ++v) {
            int p = arb->parent[static_cast<std::size_t>(v)];
            if (v == 0) {
                EXPECT_EQ(p, -1);
                continue;
            }
            ASSERT_GE(p, 0);
            double cheapest =
                std::numeric_limits<double>::infinity();
            for (const auto& e : g.edges()) {
                if (e.src == p && e.dst == v)
                    cheapest = std::min(cheapest, e.weight);
            }
            total += cheapest;
        }
        EXPECT_NEAR(total, brute, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdmondsRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

/** splitmix64 and the FNV-1a mix below are self-contained on purpose:
 *  the pinned digest must not move with the standard library's
 *  distributions or the cache's key hash, since the solver it was
 *  recorded from no longer exists to re-record it. */
struct SplitMix {
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    int
    below(int n)
    {
        return static_cast<int>(next() % static_cast<std::uint64_t>(n));
    }
};

std::uint64_t
fnv_mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv_mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return fnv_mix(h, bits);
}

/**
 * Chain of 2-cycles: i <-> i+1 at weight 1, forward edges first, so
 * each Edmonds level contracts exactly one 2-cycle (n - 1 levels),
 * padded with @p padding heavier random edges that never win a pick.
 */
Digraph
two_cycle_chain(int n, int padding, std::uint64_t seed)
{
    Digraph g(n);
    for (int i = 0; i + 1 < n; ++i) {
        g.add_edge(i, i + 1, 1.0);
        g.add_edge(i + 1, i, 1.0);
    }
    SplitMix rng{seed};
    for (int k = 0; k < padding; ++k) {
        const int u = rng.below(n);
        const int v = rng.below(n);
        if (u != v)
            g.add_edge(u, v,
                       2.0 + static_cast<double>(rng.below(1000)) / 100.0);
    }
    return g;
}

/**
 * Tie-heavy random digraph: few distinct weights (decimal fractions,
 * so the order of the reduced-weight subtractions shows in the bits),
 * parallel edges, and sometimes a 2-cycle chain underneath for deep
 * contraction.
 */
Digraph
tie_heavy_graph(std::uint64_t seed)
{
    static constexpr double kWeights[] = {0.0, 0.1, 0.2, 0.3, 0.7, 1.0};
    SplitMix rng{seed};
    const int n = 1 + rng.below(24);
    Digraph g(n);
    if (rng.below(3) == 0) {
        for (int i = 0; i + 1 < n; ++i) {
            g.add_edge(i, i + 1, 0.1);
            g.add_edge(i + 1, i, 0.1);
        }
    }
    const int density = 1 + rng.below(9); // tenths
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u == v || rng.below(10) >= density)
                continue;
            g.add_edge(u, v, kWeights[rng.below(6)]);
            if (rng.below(8) == 0) // parallel edge
                g.add_edge(u, v, kWeights[rng.below(6)]);
        }
    }
    return g;
}

/**
 * Digest of every pick the solver makes on 500 tie-heavy graphs:
 * min_forest()'s parent vector, root count, weight bits and
 * contraction tally, and min_arborescence()'s answer from node 0.
 */
std::uint64_t
tie_order_digest()
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const Digraph g = tie_heavy_graph(seed);
        const std::uint64_t before = thread_contraction_tally();
        const Arborescence forest = min_forest(g);
        h = fnv_mix(h, thread_contraction_tally() - before);
        for (int p : forest.parent)
            h = fnv_mix(h, static_cast<std::uint64_t>(p));
        h = fnv_mix(h, static_cast<std::uint64_t>(forest.num_roots));
        h = fnv_mix_double(h, forest.weight);
        const auto arb = min_arborescence(g, 0);
        h = fnv_mix(h, arb.has_value() ? 1 : 0);
        if (arb) {
            for (int p : arb->parent)
                h = fnv_mix(h, static_cast<std::uint64_t>(p));
            h = fnv_mix_double(h, arb->weight);
        }
    }
    return h;
}

TEST(EdmondsTieOrder, PicksMatchThePinnedDigest)
{
    // Recorded from the recursive solver (one edge-list copy per
    // contraction level) before it became the in-place loop: every
    // tie-break, contraction and weight summation order is kept.
    EXPECT_EQ(tie_order_digest(), 0x8aaeac23e7767148ull);
}

TEST(EdmondsTieOrder, TwoCycleChainContractsOncePerLevel)
{
    const int n = 200;
    const Digraph g = two_cycle_chain(n, 50 * n, 3);
    const std::uint64_t before = thread_contraction_tally();
    const Arborescence forest = min_forest(g);
    EXPECT_EQ(thread_contraction_tally() - before,
              static_cast<std::uint64_t>(n - 1));
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.parent[0], -1);
    for (int v = 1; v < n; ++v)
        EXPECT_EQ(forest.parent[static_cast<std::size_t>(v)], v - 1);
    EXPECT_NEAR(forest.weight, static_cast<double>(n - 1), 1e-6);
}

// ---------------------------------------------------------------------
// Edmonds against the full-rescan solver it replaced
// ---------------------------------------------------------------------

/**
 * The Chu-Liu/Edmonds loop min_forest() ran before it re-picked only
 * contracted nodes, kept as the reference: one working edge array,
 * rescanned for every node's cheapest in-edge and compacted in place
 * at every contraction level. It counts its contractions into its
 * result instead of the thread tally.
 */
namespace full_rescan {

struct WorkEdge {
    int src = 0;
    int dst = 0;
    double weight = 0.0;
    int input = 0;
    int input_dst = 0;
};

struct Pick {
    int input = -1;
    int input_dst = -1;
};

struct Level {
    std::vector<Pick> in_pick;
    std::vector<int> cycle_id;
    std::vector<int> node_of;
    int num_cycles = 0;
};

struct Solved {
    std::optional<std::vector<int>> chosen;
    std::vector<double> reduced;
    int levels = 0;
    std::uint64_t contractions = 0;
};

Solved
solve(int n, int root, std::vector<WorkEdge>& work, bool duals)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto idx = [](int i) { return static_cast<std::size_t>(i); };
    Solved out;
    if (duals)
        out.reduced.resize(work.size());

    std::vector<int> node_of(idx(n));
    std::iota(node_of.begin(), node_of.end(), 0);
    std::vector<Level> levels;
    std::vector<Pick> chosen;
    std::vector<int> in_pos;
    std::vector<double> in_w;
    std::vector<int> color;
    std::vector<int> comp;
    while (true) {
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
                return out;
        }
        const auto pred = [&](int v) {
            return work[idx(in_pos[idx(v)])].src;
        };

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
                int u = v;
                do {
                    level.cycle_id[idx(u)] = level.num_cycles;
                    u = pred(u);
                } while (u != v);
                ++level.num_cycles;
            }
            int u = start;
            while (u != root && color[idx(u)] == 1) {
                color[idx(u)] = 2;
                u = pred(u);
            }
        }

        if (level.num_cycles == 0) {
            if (duals) {
                for (const WorkEdge& e : work) {
                    out.reduced[idx(e.input)] =
                        e.dst == root ? kInf : e.weight - in_w[idx(e.dst)];
                }
                out.levels = static_cast<int>(levels.size());
            }
            for (int v = 0; v < n; ++v) {
                if (v != root) {
                    const WorkEdge& e = work[idx(in_pos[idx(v)])];
                    chosen.push_back({e.input, e.input_dst});
                }
            }
            break;
        }
        out.contractions += static_cast<std::uint64_t>(level.num_cycles);

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
                    out.reduced[idx(e.input)] = e.weight - in_w[idx(e.dst)];
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
    for (const Pick& pick : chosen)
        inputs.push_back(pick.input);
    out.chosen = std::move(inputs);
    return out;
}

std::vector<WorkEdge>
work_edges(const Digraph& graph)
{
    std::vector<WorkEdge> work;
    for (std::size_t i = 0; i < graph.edges().size(); ++i) {
        const Edge& e = graph.edges()[i];
        work.push_back(
            WorkEdge{e.src, e.dst, e.weight, static_cast<int>(i), e.dst});
    }
    return work;
}

/** certify_min_forest() as the full-rescan solver computed it, plus
 *  its contraction count. */
std::pair<ForestCertificate, std::uint64_t>
certify(const Digraph& graph)
{
    ForestCertificate cert;
    const int n = graph.num_nodes();
    if (n == 0)
        return {cert, 0};
    const double penalty = graph.total_abs_weight() + 1.0;
    const int num_real = static_cast<int>(graph.edges().size());
    std::vector<WorkEdge> work = work_edges(graph);
    for (int v = 0; v < n; ++v)
        work.push_back(WorkEdge{n, v, penalty, num_real + v, v});
    Solved solved = solve(n + 1, n, work, true);
    Arborescence& result = cert.forest;
    result.parent.assign(static_cast<std::size_t>(n), -1);
    cert.in_edge.assign(static_cast<std::size_t>(n), -1);
    double total = 0.0;
    for (int i : *solved.chosen) {
        if (i >= num_real) {
            ++result.num_roots;
            total += penalty;
            continue;
        }
        const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        cert.in_edge[static_cast<std::size_t>(e.dst)] = i;
        total += e.weight;
    }
    result.weight =
        total - penalty * static_cast<double>(result.num_roots);
    cert.reduced = std::move(solved.reduced);
    cert.penalty = penalty;
    cert.levels = solved.levels;
    return {cert, solved.contractions};
}

std::optional<Arborescence>
arborescence(const Digraph& graph, int root)
{
    std::vector<WorkEdge> work = work_edges(graph);
    Solved solved = solve(graph.num_nodes(), root, work, false);
    if (!solved.chosen)
        return std::nullopt;
    Arborescence result;
    result.parent.assign(
        static_cast<std::size_t>(graph.num_nodes()), -1);
    for (int i : *solved.chosen) {
        const Edge& e = graph.edges()[static_cast<std::size_t>(i)];
        result.parent[static_cast<std::size_t>(e.dst)] = e.src;
        result.weight += e.weight;
    }
    result.num_roots = 1;
    return result;
}

} // namespace full_rescan

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void
expect_same_arborescence(const Arborescence& got, const Arborescence& want)
{
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.num_roots, want.num_roots);
    EXPECT_TRUE(same_bits(got.weight, want.weight))
        << got.weight << " vs " << want.weight;
}

/**
 * Seeded digraph for the solver equivalence sweep. The seed picks the
 * shape: ties from a small weight palette that holds both zeros and
 * negative weights, all-equal weights, or continuous ones; parallel
 * edges; isolated and unreachable nodes (no in-edges at all); and
 * sometimes a 2-cycle chain underneath, which contracts one 2-cycle
 * per level.
 */
Digraph
equivalence_graph(std::uint64_t seed)
{
    static constexpr double kPalette[] = {0.0, -0.0, 0.1, 0.2,
                                          0.3, 0.7,  1.0, -0.4};
    SplitMix rng{seed};
    const int n = 1 + rng.below(seed % 10 == 0 ? 120 : 30);
    Digraph g(n);
    const int weights = rng.below(3); // 0 palette, 1 all equal, 2 real
    auto weight = [&] {
        if (weights == 0)
            return kPalette[rng.below(8)];
        if (weights == 1)
            return 1.0;
        return static_cast<double>(rng.below(1000000)) / 7919.0;
    };
    if (rng.below(3) == 0) {
        const int chain = 1 + rng.below(n);
        const double w = weights == 2 ? 0.05 : weight();
        for (int i = 0; i + 1 < chain; ++i) {
            g.add_edge(i, i + 1, w);
            g.add_edge(i + 1, i, w);
        }
    }
    // Nodes >= open get in-edges; the rest are sources, so a root
    // other than them leaves them unreachable.
    const int open = rng.below(4) == 0 ? rng.below(n) : 0;
    const int density = 1 + rng.below(9); // tenths
    for (int u = 0; u < n; ++u) {
        for (int v = open; v < n; ++v) {
            if (u == v || rng.below(10) >= density)
                continue;
            g.add_edge(u, v, weight());
            while (rng.below(6) == 0) // parallel edges
                g.add_edge(u, v, weight());
        }
    }
    return g;
}

TEST(EdmondsEquivalence, MatchesTheFullRescanSolver)
{
    int deep = 0;
    int unsolvable = 0;
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        SCOPED_TRACE(seed);
        const Digraph g = equivalence_graph(seed);
        const auto [want, want_contractions] = full_rescan::certify(g);

        std::uint64_t before = thread_contraction_tally();
        const ForestCertificate cert = certify_min_forest(g);
        EXPECT_EQ(thread_contraction_tally() - before, want_contractions);
        expect_same_arborescence(cert.forest, want.forest);
        EXPECT_EQ(cert.in_edge, want.in_edge);
        EXPECT_EQ(cert.levels, want.levels);
        EXPECT_TRUE(same_bits(cert.penalty, want.penalty));
        ASSERT_EQ(cert.reduced.size(), want.reduced.size());
        for (std::size_t i = 0; i < cert.reduced.size(); ++i) {
            EXPECT_TRUE(same_bits(cert.reduced[i], want.reduced[i]))
                << "edge " << i << ": " << cert.reduced[i] << " vs "
                << want.reduced[i];
        }
        deep += want.levels >= 5 ? 1 : 0;

        before = thread_contraction_tally();
        expect_same_arborescence(min_forest(g), want.forest);
        EXPECT_EQ(thread_contraction_tally() - before, want_contractions);

        if (g.num_nodes() == 0)
            continue;
        SplitMix pick{seed};
        for (int root : {0, pick.below(g.num_nodes())}) {
            before = thread_contraction_tally();
            const auto got = min_arborescence(g, root);
            EXPECT_EQ(thread_contraction_tally(), before);
            const auto ref = full_rescan::arborescence(g, root);
            ASSERT_EQ(got.has_value(), ref.has_value()) << "root " << root;
            if (ref)
                expect_same_arborescence(*got, *ref);
            else
                ++unsolvable;
        }
    }
    // The sweep reaches the cases it is meant to cover.
    EXPECT_GT(deep, 50);
    EXPECT_GT(unsolvable, 100);
}

TEST(EdmondsEquivalence, MatchesOnDeepTwoCycleChains)
{
    for (int n : {2, 3, 17, 120}) {
        SCOPED_TRACE(n);
        const Digraph g = two_cycle_chain(n, 20 * n, 5);
        const auto [want, want_contractions] = full_rescan::certify(g);
        const std::uint64_t before = thread_contraction_tally();
        const ForestCertificate cert = certify_min_forest(g);
        EXPECT_EQ(thread_contraction_tally() - before, want_contractions);
        EXPECT_EQ(cert.levels, n - 1);
        expect_same_arborescence(cert.forest, want.forest);
        EXPECT_EQ(cert.in_edge, want.in_edge);
        ASSERT_EQ(cert.reduced.size(), want.reduced.size());
        for (std::size_t i = 0; i < cert.reduced.size(); ++i)
            EXPECT_TRUE(same_bits(cert.reduced[i], want.reduced[i])) << i;
    }
}

// ---------------------------------------------------------------------
// min_forest
// ---------------------------------------------------------------------

TEST(MinForest, SingleRootWhenConnected)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 2, 0.5);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.parent[0], -1);
    EXPECT_EQ(forest.parent[1], 0);
    EXPECT_EQ(forest.parent[2], 1);
    EXPECT_DOUBLE_EQ(forest.weight, 1.5);
}

TEST(MinForest, DisconnectedGraphYieldsMultipleRoots)
{
    Digraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(2, 3, 1.0);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 2);
    EXPECT_EQ(forest.parent[1], 0);
    EXPECT_EQ(forest.parent[3], 2);
}

TEST(MinForest, PenaltyDominatesEdgeWeights)
{
    // Even a very expensive real edge beats becoming a root
    // (Heuristic 4.1: prefer derived over root).
    Digraph g(2);
    g.add_edge(0, 1, 1e6);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 1);
    EXPECT_EQ(forest.parent[1], 0);
}

TEST(MinForest, EmptyGraph)
{
    Digraph g(0);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 0);
    EXPECT_TRUE(forest.parent.empty());
}

TEST(MinForest, NoEdgesAllRoots)
{
    Digraph g(3);
    Arborescence forest = min_forest(g);
    EXPECT_EQ(forest.num_roots, 3);
}

// ---------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------

TEST(Enumerate, FindsAllCoOptimalForests)
{
    // Symmetric pair: either direction is optimal.
    Digraph g(2);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 0, 1.0);
    auto forests = enumerate_min_forests(g);
    EXPECT_EQ(forests.size(), 2u);
}

TEST(Enumerate, CompleteSymmetricStarCounts)
{
    // Complete digraph on 4 nodes with equal weights: n^(n-1) = 64
    // spanning arborescences (the echoparams count).
    Digraph g(4);
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    EnumerateConfig config;
    config.max_results = 1000;
    auto forests = enumerate_min_forests(g, config);
    EXPECT_EQ(forests.size(), 64u);
}

TEST(Enumerate, UniqueOptimumYieldsOneForest)
{
    Digraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 2.0);
    g.add_edge(1, 2, 1.0);
    auto forests = enumerate_min_forests(g);
    ASSERT_EQ(forests.size(), 1u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(Enumerate, FirstResultIsOptimal)
{
    rock::support::Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 2 + static_cast<int>(rng.index(4));
        Digraph g(n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.chance(0.8)) {
                    g.add_edge(
                        u, v,
                        static_cast<double>(rng.uniform(1, 9)));
                }
            }
        }
        Arborescence best = min_forest(g);
        auto forests = enumerate_min_forests(g);
        ASSERT_FALSE(forests.empty());
        EXPECT_NEAR(forests[0].weight, best.weight, 1e-9);
        EXPECT_EQ(forests[0].num_roots, best.num_roots);
    }
}

TEST(Enumerate, RespectsMaxResults)
{
    Digraph g(4);
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    EnumerateConfig config;
    config.max_results = 10;
    auto forests = enumerate_min_forests(g, config);
    EXPECT_EQ(forests.size(), 10u);
}

TEST(Enumerate, EpsilonAdmitsNearOptimal)
{
    Digraph g(2);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 0, 1.5);
    EnumerateConfig tight;
    EXPECT_EQ(enumerate_min_forests(g, tight).size(), 1u);
    EnumerateConfig loose;
    loose.epsilon = 1.0;
    EXPECT_EQ(enumerate_min_forests(g, loose).size(), 2u);
}

// ---------------------------------------------------------------------
// Exact enumeration against the search it replaced
// ---------------------------------------------------------------------

/** What the search enumerate_min_forests() replaced finds. */
struct Reference {
    /** The candidate graph it solves: edges by node, cheapest first. */
    Digraph original{0};
    /** The Edmonds optimum, then the other forests in the order found
     *  (capped), unsorted. */
    std::vector<Arborescence> forests;
    /** Per forest after the optimum: each node's edge in original, -1
     *  at a root. */
    std::vector<std::vector<int>> edges;
    long steps = 0;
};

/**
 * The branch-and-bound depth-first search enumerate_min_forests() ran
 * before it became exact, kept as the reference, with its step budget
 * optional: nodes in index order, each node's candidates cheapest
 * first (stably, "root" listed first), a branch pruned once its
 * node-order cost plus every later node's cheapest candidate exceeds
 * the optimum plus epsilon. It stops past @p max_steps when that is
 * positive.
 */
Reference
reference_search(const Digraph& graph, double epsilon, int max_results,
                 long max_steps = 0)
{
    struct Cand {
        int src;
        double weight;
        int edge; // index in original, -1 for the root
    };
    const int n = graph.num_nodes();
    const auto at = [](int i) { return static_cast<std::size_t>(i); };
    const double penalty = graph.total_abs_weight() + 1.0;
    std::vector<std::vector<Cand>> cands(at(n));
    for (int v = 0; v < n; ++v)
        cands[at(v)].push_back({-1, penalty, -1});
    for (const Edge& e : graph.edges())
        cands[at(e.dst)].push_back({e.src, e.weight, -1});
    for (auto& list : cands) {
        std::stable_sort(list.begin(), list.end(),
                         [](const Cand& a, const Cand& b) {
                             return a.weight < b.weight;
                         });
    }
    std::vector<double> suffix_min(at(n) + 1, 0.0);
    for (int v = n - 1; v >= 0; --v) {
        suffix_min[at(v)] =
            suffix_min[at(v) + 1] + cands[at(v)].front().weight;
    }

    Reference ref;
    ref.original = Digraph(n);
    for (int v = 0; v < n; ++v) {
        for (Cand& c : cands[at(v)]) {
            if (c.src >= 0) {
                c.edge = static_cast<int>(ref.original.edges().size());
                ref.original.add_edge(c.src, v, c.weight);
            }
        }
    }
    ref.forests.push_back(min_forest(ref.original));
    const std::vector<int> seed = ref.forests.front().parent;
    const double best_cost =
        ref.forests.front().weight +
        penalty * static_cast<double>(ref.forests.front().num_roots);
    std::vector<const Cand*> chosen(at(n), nullptr);
    auto parent = [&](int u) {
        return chosen[at(u)] ? chosen[at(u)]->src : -2; // -2: unassigned
    };
    auto dfs = [&](auto&& self, int v, double cost) -> void {
        if (static_cast<int>(ref.forests.size()) >= max_results ||
            (++ref.steps > max_steps && max_steps > 0))
            return;
        if (v == n) {
            Arborescence arb;
            arb.parent.assign(at(n), -1);
            std::vector<int> edges(at(n), -1);
            for (int u = 0; u < n; ++u) {
                arb.parent[at(u)] = parent(u);
                edges[at(u)] = chosen[at(u)]->edge;
                arb.num_roots += parent(u) < 0 ? 1 : 0;
            }
            if (arb.parent == seed)
                return;
            arb.weight = cost - penalty * static_cast<double>(arb.num_roots);
            ref.forests.push_back(std::move(arb));
            ref.edges.push_back(std::move(edges));
            return;
        }
        const double bound = suffix_min[at(v) + 1];
        for (const Cand& c : cands[at(v)]) {
            const double next = cost + c.weight;
            if (next + bound > best_cost + epsilon + 1e-12)
                break;
            bool cycle = false;
            for (int u = c.src; u >= 0 && !cycle; u = parent(u))
                cycle = u == v;
            if (cycle)
                continue;
            chosen[at(v)] = &c;
            self(self, v + 1, next);
            chosen[at(v)] = nullptr;
        }
    };
    dfs(dfs, 0, 0.0);
    return ref;
}

/** Root-penalized cost, as both searches sort by it. */
double
sort_cost(const Digraph& graph, const Arborescence& arb)
{
    return arb.weight + (graph.total_abs_weight() + 1.0) *
                            static_cast<double>(arb.num_roots);
}

/** @p found in enumerate_min_forests()'s order: the optimum, then the
 *  rest stably by cost. */
std::vector<Arborescence>
optimum_first(const Digraph& graph, std::vector<Arborescence> found)
{
    std::stable_sort(found.begin() + 1, found.end(),
                     [&](const Arborescence& a, const Arborescence& b) {
                         return sort_cost(graph, a) < sort_cost(graph, b);
                     });
    return found;
}

std::uint64_t
weight_bits(double w)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    return bits;
}

void
expect_same_forests(const std::vector<Arborescence>& got,
                    const std::vector<Arborescence>& want,
                    const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].parent, want[i].parent) << what << " #" << i;
        EXPECT_EQ(got[i].num_roots, want[i].num_roots) << what << " #" << i;
        EXPECT_EQ(weight_bits(got[i].weight), weight_bits(want[i].weight))
            << what << " #" << i;
    }
}

/**
 * Seeded digraph on 2-8 nodes with many exact ties: weights from a
 * few values (integers, or decimal fractions whose sums round), zero
 * weights, and parallel edges.
 */
Digraph
tied_digraph(std::uint64_t seed)
{
    static constexpr double kIntegers[] = {0.0, 1.0, 1.0, 2.0};
    static constexpr double kDecimals[] = {0.0, 0.1, 0.2, 0.3};
    SplitMix rng{seed};
    const double* weights = seed % 2 ? kDecimals : kIntegers;
    const int n = 2 + rng.below(7);
    const int density = 2 + rng.below(5); // tenths
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u == v || rng.below(10) >= density)
                continue;
            g.add_edge(u, v, weights[rng.below(4)]);
            if (rng.below(5) == 0) // parallel edge
                g.add_edge(u, v, weights[rng.below(4)]);
        }
    }
    return g;
}

TEST(ExactEnumerate, MatchesTheUnbudgetedSearchOnTiedDigraphs)
{
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        const Digraph g = tied_digraph(seed);
        for (const double epsilon : {0.0, 1e-9, 0.15}) {
            for (const int cap : {1, 2, 64}) {
                EnumerateConfig config;
                config.epsilon = epsilon;
                config.max_results = cap;
                expect_same_forests(
                    enumerate_min_forests(g, config),
                    optimum_first(
                        g, reference_search(g, epsilon, cap).forests),
                    "seed " + std::to_string(seed) + " epsilon " +
                        std::to_string(epsilon) + " cap " +
                        std::to_string(cap));
                if (HasFailure())
                    return;
            }
        }
    }
}

/** tied_digraph(@p seed) plus a ballast edge of weight 1e6, which
 *  lifts the root penalty so that node-order sums round at about
 *  1e-10. */
Digraph
ballasted_digraph(std::uint64_t seed)
{
    Digraph g = tied_digraph(seed);
    g.add_edge(g.num_nodes() - 1, 0, 1e6);
    return g;
}

TEST(ExactEnumerate, MatchesTheSearchUnderALargePenalty)
{
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        const Digraph g = ballasted_digraph(seed);
        for (const int cap : {2, 64}) {
            EnumerateConfig config;
            config.epsilon = 1e-6;
            config.max_results = cap;
            expect_same_forests(
                enumerate_min_forests(g, config),
                optimum_first(g,
                              reference_search(g, 1e-6, cap).forests),
                "seed " + std::to_string(seed) + " cap " +
                    std::to_string(cap));
            if (HasFailure())
                return;
        }
    }
}

TEST(ExactEnumerate, TightBoundCoversEveryForestTheSearchAdmits)
{
    // At epsilon 0 under a large penalty, exact ties sit on the limit
    // and rounding decides which the search admits, so their edges'
    // reduced weights are rounding noise above epsilon: tight_bound()'s
    // rounding term must cover them.
    double worst = 0.0;
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        const Reference ref =
            reference_search(ballasted_digraph(seed), 0.0, 1000);
        const ForestCertificate cert = certify_min_forest(ref.original);
        const double bound = tight_bound(ref.original, cert, 0.0);
        const std::size_t num_real = ref.original.edges().size();
        for (const auto& edges : ref.edges) {
            for (std::size_t v = 0; v < edges.size(); ++v) {
                const double rc =
                    edges[v] < 0 ? cert.reduced[num_real + v]
                                 : cert.reduced[static_cast<std::size_t>(
                                       edges[v])];
                worst = std::max(worst, rc);
                ASSERT_LE(rc, bound) << "seed " << seed << " node " << v;
            }
        }
    }
    // The case is real: some admitted edge lies above epsilon plus the
    // search's own 1e-12.
    EXPECT_GT(worst, 1e-12);
}

TEST(ExactEnumerate, StepBudgetHasNoEffect)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Digraph g = tied_digraph(seed);
        EnumerateConfig config;
        config.max_results = 64;
        const auto want = enumerate_min_forests(g, config);
        for (const long steps : {1L, 20L, 2000000L}) {
            config.max_steps = steps;
            expect_same_forests(enumerate_min_forests(g, config), want,
                                "seed " + std::to_string(seed) +
                                    " max_steps " + std::to_string(steps));
        }
    }
}

TEST(ExactEnumerate, OptimumStaysFirstWhenATieRoundsLower)
{
    // A 3-cycle at 0.1 per edge: three co-optimal forests, one root
    // each. Edmonds roots node 0 and sums P + 0.1 + 0.1, which rounds
    // up to 1.5000000000000002; the forest rooted at node 2 sums
    // 0.1 + 0.1 + P in node order, which rounds to 1.5.
    Digraph g(3);
    g.add_edge(0, 1, 0.1);
    g.add_edge(1, 2, 0.1);
    g.add_edge(2, 0, 0.1);
    const Arborescence best = min_forest(g);
    ASSERT_EQ(best.parent, (std::vector<int>{-1, 0, 1}));

    // The search's own cost order would put that forest first.
    auto old_order = reference_search(g, 1e-9, 64).forests;
    ASSERT_EQ(old_order.size(), 3u);
    std::stable_sort(old_order.begin(), old_order.end(),
                     [&](const Arborescence& a, const Arborescence& b) {
                         return sort_cost(g, a) < sort_cost(g, b);
                     });
    ASSERT_EQ(old_order.front().parent, (std::vector<int>{2, 0, -1}));

    const auto forests = enumerate_min_forests(g);
    ASSERT_EQ(forests.size(), 3u);
    EXPECT_EQ(forests[0].parent, best.parent);
    EXPECT_EQ(weight_bits(forests[0].weight), weight_bits(best.weight));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{2, 0, -1}));
    EXPECT_LT(sort_cost(g, forests[1]), sort_cost(g, forests[0]));
}

/**
 * A hub (node 0) over @p pairs twin pairs: the hub reaches each twin
 * at 1.0, twins reach each other at 0.5, so every pair has two
 * co-optimal shapes (2^pairs forests). The last twin reaches the hub
 * at 3.0, an edge no co-optimal forest can use: it needs a second
 * root. Node 0 takes it first, and the search's bound, which leaves
 * out the root penalty, cannot see that its subtree holds no forest.
 */
Digraph
twin_family(int pairs)
{
    Digraph g(1 + 2 * pairs);
    for (int i = 0; i < pairs; ++i) {
        const int a = 1 + 2 * i;
        const int b = a + 1;
        g.add_edge(0, a, 1.0);
        g.add_edge(0, b, 1.0);
        g.add_edge(a, b, 0.5);
        g.add_edge(b, a, 0.5);
    }
    g.add_edge(2 * pairs, 0, 3.0);
    return g;
}

TEST(ExactEnumerate, LargeTwinFamilyFinishes)
{
    const Digraph g = twin_family(600);
    EnumerateConfig config;
    config.epsilon = 1e-6;
    config.max_results = 64;
    // The old search spends its 2M steps under node 0's first
    // candidate and finds nothing but the optimum.
    const Reference cut = reference_search(g, config.epsilon, 64, 2000000);
    EXPECT_EQ(cut.forests.size(), 1u);
    EXPECT_GT(cut.steps, 2000000);

    const auto forests = enumerate_min_forests(g, config);
    ASSERT_EQ(forests.size(), 64u);
    const Arborescence best = min_forest(g);
    EXPECT_EQ(forests[0].parent, best.parent);
    for (const Arborescence& f : forests) {
        EXPECT_EQ(f.num_roots, 1);
        EXPECT_EQ(f.parent[0], -1);
        EXPECT_NEAR(f.weight, 1.5 * 600, 1e-6);
    }
}

TEST(Digraph, RejectsBadEdges)
{
    Digraph g(2);
    EXPECT_THROW(g.add_edge(0, 0, 1.0), rock::support::PanicError);
    EXPECT_THROW(g.add_edge(0, 5, 1.0), rock::support::PanicError);
}

// ---------------------------------------------------------------------
// Structural ambiguity
// ---------------------------------------------------------------------

using EdgeList = std::vector<std::pair<int, int>>;

/** Brute force: do two distinct parent vectors reach the minimum root
 *  count? Candidates per node: root, or any distinct in-neighbour. */
bool
brute_force_ambiguous(int n, const EdgeList& edges)
{
    std::vector<std::vector<int>> options(static_cast<std::size_t>(n),
                                          std::vector<int>{-1});
    for (const auto& [u, v] : edges) {
        auto& list = options[static_cast<std::size_t>(v)];
        if (u != v && std::find(list.begin(), list.end(), u) == list.end())
            list.push_back(u);
    }
    int best_roots = n + 1;
    int count = 0;
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    auto rec = [&](auto&& self, int v) -> void {
        if (v == n) {
            for (int u = 0; u < n; ++u) {
                int cur = u;
                for (int steps = 0; cur >= 0 && steps <= n; ++steps)
                    cur = parent[static_cast<std::size_t>(cur)];
                if (cur >= 0)
                    return; // a cycle
            }
            const int roots = static_cast<int>(
                std::count(parent.begin(), parent.end(), -1));
            if (roots < best_roots) {
                best_roots = roots;
                count = 1;
            } else if (roots == best_roots) {
                ++count;
            }
            return;
        }
        for (int p : options[static_cast<std::size_t>(v)]) {
            parent[static_cast<std::size_t>(v)] = p;
            self(self, v + 1);
        }
    };
    rec(rec, 0);
    return count >= 2;
}

/** The enumerator-based probe the exact test replaced, unbudgeted. */
bool
enumerator_ambiguous(int n, const EdgeList& edges)
{
    Digraph skeleton(n);
    for (const auto& [u, v] : edges) {
        if (u != v)
            skeleton.add_edge(u, v, 0.0);
    }
    EnumerateConfig probe;
    probe.epsilon = 0.0;
    probe.max_results = 2;
    probe.max_steps = std::numeric_limits<long>::max();
    return enumerate_min_forests(skeleton, probe).size() > 1;
}

/** Does @p edges hold a 2-cycle that no other node enters, i.e. a
 *  multi-member source SCC? */
bool
has_two_cycle_source(int n, const EdgeList& edges)
{
    auto has = [&](int a, int b) {
        return std::find(edges.begin(), edges.end(),
                         std::make_pair(a, b)) != edges.end();
    };
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (!has(u, v) || !has(v, u))
                continue;
            const bool entered = std::any_of(
                edges.begin(), edges.end(), [&](const auto& e) {
                    return (e.second == u || e.second == v) &&
                           e.first != u && e.first != v;
                });
            if (!entered)
                return true;
        }
    }
    return false;
}

TEST(Ambiguity, MatchesBruteForceOnSmallDigraphs)
{
    int ambiguous = 0;
    int multi_member_sources = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        SplitMix rng{seed};
        const int n = 1 + rng.below(6);
        const int density = rng.below(7); // tenths
        EdgeList edges;
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (rng.below(10) >= density)
                    continue;
                if (u == v && rng.below(3) != 0)
                    continue; // self-loops, but fewer
                edges.emplace_back(u, v);
                if (rng.below(6) == 0)
                    edges.emplace_back(u, v); // parallel edge
            }
        }
        const bool want = brute_force_ambiguous(n, edges);
        ASSERT_EQ(has_multiple_min_forests(n, edges), want)
            << "seed " << seed;
        ASSERT_EQ(enumerator_ambiguous(n, edges), want) << "seed " << seed;
        ambiguous += want;
        multi_member_sources += has_two_cycle_source(n, edges);
    }
    // The draw covers both answers and the source-SCC rule.
    EXPECT_GT(ambiguous, 40);
    EXPECT_LT(ambiguous, 360);
    EXPECT_GT(multi_member_sources, 5);
}

TEST(Ambiguity, TwoCycleIsAmbiguous)
{
    EXPECT_TRUE(has_multiple_min_forests(2, {{0, 1}, {1, 0}}));
}

TEST(Ambiguity, ChainIsNot)
{
    EXPECT_FALSE(has_multiple_min_forests(3, {{0, 1}, {1, 2}}));
}

TEST(Ambiguity, DiamondIs)
{
    // 3 may hang under 1 or under 2.
    EXPECT_TRUE(
        has_multiple_min_forests(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
}

TEST(Ambiguity, BackEdgeFromDominatedDescendantIsNot)
{
    // 2 -> 1 can never be 1's parent edge: 1 dominates 2.
    EXPECT_FALSE(has_multiple_min_forests(3, {{0, 1}, {1, 2}, {2, 1}}));
}

TEST(Ambiguity, SelfLoopsParallelEdgesAndIsolatedNodesAreNot)
{
    EXPECT_FALSE(has_multiple_min_forests(0, {}));
    EXPECT_FALSE(has_multiple_min_forests(1, {{0, 0}}));
    EXPECT_FALSE(
        has_multiple_min_forests(4, {{0, 1}, {0, 1}, {1, 1}, {2, 2}}));
}

TEST(Ambiguity, DeepForcedChainWithBackEdges)
{
    // A 50k-deep chain under root 0, with back edges from dominated
    // descendants (one big SCC, entered only from the root):
    // unambiguous, and no recursion depth to overflow.
    const int n = 50000;
    EdgeList edges;
    SplitMix rng{5};
    for (int v = 1; v < n; ++v) {
        edges.emplace_back(v - 1, v);
        if (v > 1)
            edges.emplace_back(v, std::max(1, v - 1 - rng.below(4)));
    }
    EXPECT_FALSE(has_multiple_min_forests(n, edges));
    // An edge from a non-descendant gives 2 a second possible parent.
    edges.emplace_back(0, 2);
    EXPECT_TRUE(has_multiple_min_forests(n, edges));
}

} // namespace
