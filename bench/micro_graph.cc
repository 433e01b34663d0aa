/**
 * @file
 * google-benchmark microbenchmarks for the arborescence solver and its
 * certificate, the co-optimal enumerator and the structural-ambiguity
 * test.
 */
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "graph/ambiguity.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "graph/enumerate.h"
#include "support/rng.h"

namespace {

using namespace rock;

graph::Digraph
random_graph(int n, double density, std::uint64_t seed)
{
    support::Rng rng(seed);
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.chance(density)) {
                g.add_edge(u, v, rng.real() * 10.0 + 0.1);
            }
        }
    }
    return g;
}

void
BM_MinForest(benchmark::State& state)
{
    graph::Digraph g =
        random_graph(static_cast<int>(state.range(0)), 0.5, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::min_forest(g));
}
BENCHMARK(BM_MinForest)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void
BM_MinForestDeep(benchmark::State& state)
{
    // A chain of 2-cycles (i <-> i+1 at weight 1, forward edges first)
    // contracts one 2-cycle per level: n - 1 levels, the solver's
    // deepest case. Heavier random edges pad it to 50x the node count
    // without winning a single pick.
    const int n = static_cast<int>(state.range(0));
    graph::Digraph g(n);
    for (int i = 0; i + 1 < n; ++i) {
        g.add_edge(i, i + 1, 1.0);
        g.add_edge(i + 1, i, 1.0);
    }
    support::Rng rng(11);
    const auto nodes = static_cast<std::size_t>(n);
    while (static_cast<int>(g.edges().size()) < 50 * n) {
        const auto u = static_cast<int>(rng.index(nodes));
        const auto v = static_cast<int>(rng.index(nodes));
        if (u != v)
            g.add_edge(u, v, 2.0 + rng.real() * 10.0);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::min_forest(g));
}
BENCHMARK(BM_MinForestDeep)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void
BM_CertifyMinForest(benchmark::State& state)
{
    // The tie engine's seed solve at giant-family scale: 3000 nodes and
    // 300k random edges (weights 1-11), over a chain of 2-cycles on
    // 128 nodes at weight 0.5 that contracts one 2-cycle per level, so
    // the solve runs through at least 127 contraction levels (1,643
    // with this seed; the "levels" counter reports them).
    const int n = static_cast<int>(state.range(0));
    const int chain = 128;
    graph::Digraph g(n);
    for (int i = 0; i + 1 < chain; ++i) {
        g.add_edge(i, i + 1, 0.5);
        g.add_edge(i + 1, i, 0.5);
    }
    support::Rng rng(17);
    const auto nodes = static_cast<std::size_t>(n);
    while (static_cast<int>(g.edges().size()) < 100 * n) {
        const auto u = static_cast<int>(rng.index(nodes));
        const auto v = static_cast<int>(rng.index(nodes));
        if (u != v)
            g.add_edge(u, v, 1.0 + rng.real() * 10.0);
    }
    int levels = 0;
    for (auto _ : state) {
        graph::ForestCertificate cert = graph::certify_min_forest(g);
        levels = cert.levels;
        benchmark::DoNotOptimize(cert);
    }
    state.counters["levels"] = levels;
}
BENCHMARK(BM_CertifyMinForest)->Arg(3000)->Unit(benchmark::kMillisecond);

void
BM_EnumerateCoOptimal(benchmark::State& state)
{
    // Equal weights force many ties: the enumerator's hard case.
    const int n = static_cast<int>(state.range(0));
    graph::Digraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    graph::EnumerateConfig config;
    config.max_results = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graph::enumerate_min_forests(g, config));
    }
}
BENCHMARK(BM_EnumerateCoOptimal)->Arg(4)->Arg(6)->Arg(8);

void
BM_AmbiguityProbe(benchmark::State& state)
{
    // A family-shaped feasible graph: a spanning tree under node 0
    // (half its edges extend long forced chains), plus back edges from
    // descendants to ancestors up to 100x the node count. The answer
    // is "unambiguous", so every phase (SCCs, dominators, the
    // per-edge dominance check) runs to the end.
    const int n = static_cast<int>(state.range(0));
    support::Rng rng(13);
    auto below = [&](int k) {
        return static_cast<int>(rng.index(static_cast<std::size_t>(k)));
    };
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    std::vector<std::pair<int, int>> edges;
    for (int v = 1; v < n; ++v) {
        const int p = rng.chance(0.5) ? v - 1 : below(v);
        parent[static_cast<std::size_t>(v)] = p;
        edges.emplace_back(p, v);
    }
    while (static_cast<int>(edges.size()) < 100 * n) {
        const int w = 1 + below(n - 1);
        int a = w;
        for (int up = 1 + below(8);
             up > 0 && parent[static_cast<std::size_t>(a)] > 0; --up)
            a = parent[static_cast<std::size_t>(a)];
        if (a != w)
            edges.emplace_back(w, a);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(graph::has_multiple_min_forests(n, edges));
}
BENCHMARK(BM_AmbiguityProbe)->Arg(3000)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
