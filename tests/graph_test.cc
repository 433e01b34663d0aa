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
