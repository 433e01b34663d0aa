/**
 * @file
 * Unit/integration tests for the end-to-end Rock pipeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/artifact_cache.h"
#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "corpus/generator.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "eval/application_distance.h"
#include "eval/ground_truth.h"
#include "fuzz/fuzzer.h"
#include "obs/metrics.h"
#include "rock/pipeline.h"
#include "slm/model.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::core;

ReconstructionResult
run(const corpus::CorpusProgram& example, const RockConfig& config = {})
{
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    return reconstruct(compiled.image, config);
}

TEST(Pipeline, DistancesOnlyOnFeasibleEdges)
{
    ReconstructionResult result = run(corpus::streams_program());
    // Streams family: feasible edges are Stream->Confirmable,
    // Stream->Flushable, Confirmable->Flushable.
    EXPECT_EQ(result.distances.size(), 3u);
    for (const auto& [edge, dist] : result.distances) {
        EXPECT_NE(edge.first, edge.second);
        EXPECT_GE(dist, 0.0);
    }
}

TEST(Pipeline, VerifyStageRunsByDefault)
{
    ReconstructionResult result = run(corpus::streams_program());
    // Compiled images are rockcheck clean, and the stage is timed.
    EXPECT_TRUE(result.diagnostics.empty());
    EXPECT_GT(result.timing.verify_ms, 0.0);
}

TEST(Pipeline, AmbiguousFamiliesCounted)
{
    ReconstructionResult streams = run(corpus::streams_program());
    EXPECT_EQ(streams.ambiguous_families, 1);

    // With ctor cues everywhere, nothing is ambiguous.
    corpus::CorpusProgram cued = corpus::streams_program();
    cued.options.parent_ctor_calls = true;
    ReconstructionResult resolved = run(cued);
    EXPECT_EQ(resolved.ambiguous_families, 0);
}

TEST(Pipeline, FamiliesCoverAllTypes)
{
    ReconstructionResult result = run(corpus::datasources_program());
    std::set<int> covered;
    for (const auto& fam : result.families) {
        ASSERT_FALSE(fam.alternatives.empty());
        for (int member : fam.members)
            EXPECT_TRUE(covered.insert(member).second);
        for (const auto& alt : fam.alternatives)
            EXPECT_EQ(alt.size(), fam.members.size());
    }
    EXPECT_EQ(covered.size(), result.structural.types.size());
}

/** Give every multi-member family of @p result one more alternative,
 *  its members chained in member order. */
void
add_chain_alternatives(ReconstructionResult& result)
{
    for (FamilyResult& fam : result.families) {
        if (fam.members.size() < 2)
            continue;
        std::vector<int> chain(fam.members.size(), -1);
        for (std::size_t i = 1; i < chain.size(); ++i)
            chain[i] = fam.members[i - 1];
        fam.alternatives.push_back(std::move(chain));
    }
}

TEST(Pipeline, HierarchyWithRebuildsAlternatives)
{
    // Alternatives under the enumeration's cap: a set that reaches it
    // keeps only its optimum, so they are built by hand.
    corpus::CorpusProgram example = corpus::echoparams_program();
    ReconstructionResult result = run(example);
    add_chain_alternatives(result);

    std::vector<int> first(result.families.size(), 0);
    Hierarchy h0 = result.hierarchy_with(first);
    for (int v = 0; v < h0.size(); ++v)
        EXPECT_EQ(h0.parent(v), result.hierarchy.parent(v));

    // Some family has >1 alternative; a different pick changes the
    // forest.
    bool found_different = false;
    for (std::size_t f = 0; f < result.families.size(); ++f) {
        if (result.families[f].alternatives.size() > 1) {
            auto picks = first;
            picks[f] = 1;
            Hierarchy h1 = result.hierarchy_with(picks);
            for (int v = 0; v < h1.size(); ++v) {
                if (h1.parent(v) != h0.parent(v))
                    found_different = true;
            }
        }
    }
    EXPECT_TRUE(found_different);
}

TEST(Pipeline, NoParentIsAlsoASuccessor)
{
    // A secondary vtable's parent becomes an extra parent of its
    // primary type. In these generated images some such parent is
    // already below the primary type, and adding it closed a cycle.
    for (std::uint64_t seed : {25u, 129u}) {
        SCOPED_TRACE("sample_spec " + std::to_string(seed));
        ReconstructionResult result = reconstruct(
            toyc::compile(corpus::generate_program(fuzz::sample_spec(seed)))
                .image);
        ASSERT_FALSE(result.structural.secondary_of.empty());
        const Hierarchy& h = result.hierarchy;
        for (int v = 0; v < h.size(); ++v) {
            const std::set<int> below = h.successors(v);
            for (int p : h.parents(v))
                EXPECT_EQ(below.count(p), 0u)
                    << "node " << v << " has parent " << p
                    << " among its successors";
        }
    }
}

TEST(Pipeline, MetricIsConfigurable)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);

    // The paper found symmetric metrics inferior; here we only check
    // they run and produce a hierarchy over all types.
    for (auto metric :
         {divergence::MetricKind::KL, divergence::MetricKind::KLReversed,
          divergence::MetricKind::JSDivergence,
          divergence::MetricKind::JSDistance}) {
        RockConfig config;
        config.metric = metric;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        EXPECT_EQ(result.hierarchy.size(), 3);
    }
}

TEST(Pipeline, SlmFamilyIsConfigurable)
{
    corpus::CorpusProgram example = corpus::echoparams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);

    for (auto kind : {slm::ModelKind::PpmC, slm::ModelKind::Katz,
                      slm::ModelKind::NGram}) {
        RockConfig config;
        config.slm.kind = kind;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        // Any reasonable sequence model resolves echoparams' star.
        EXPECT_LE(d.avg_missing, 0.25) << static_cast<int>(kind);
    }
}

TEST(Pipeline, SlmDepthSweep)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (int depth : {1, 2, 3, 4}) {
        RockConfig config;
        config.slm.depth = depth;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0)
            << "depth " << depth;
    }
}

TEST(Pipeline, TraceletLengthSweep)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (int len : {3, 5, 7, 11}) {
        RockConfig config;
        config.symexec.tracelet_len = len;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0)
            << "tracelet_len " << len;
    }
}

TEST(Pipeline, EmptyImageYieldsEmptyHierarchy)
{
    bir::BinaryImage empty;
    ReconstructionResult result = reconstruct(empty);
    EXPECT_EQ(result.hierarchy.size(), 0);
    EXPECT_TRUE(result.families.empty());
}

TEST(MajorityFilter, ThreeForestTwoOneSplitDropsDissenter)
{
    // Position 1: two forests vote parent 0, one votes parent 2 --
    // the 2-1 strict majority drops the dissenter. Position 2 then
    // splits 1-1 between the survivors, which is no strict majority,
    // so exactly the two agreeing forests remain, in order.
    graph::Arborescence a;
    a.parent = {-1, 0, 1};
    graph::Arborescence b;
    b.parent = {-1, 0, 0};
    graph::Arborescence c;
    c.parent = {-1, 2, 0};
    std::vector<graph::Arborescence> forests{a, b, c};
    detail::majority_filter(forests);
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 0}));
}

TEST(MajorityFilter, UnanimousPositionsFilterNothing)
{
    // Every position is either unanimous or an even split: no forest
    // may be dropped.
    graph::Arborescence a;
    a.parent = {-1, 0, 0};
    graph::Arborescence b;
    b.parent = {-1, 0, 1};
    std::vector<graph::Arborescence> forests{a, b};
    detail::majority_filter(forests);
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 0}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(MajorityFilter, CascadesUntilFixpoint)
{
    // Dropping the position-1 dissenter leaves a 2-1 majority at
    // position 2... (3-1 at position 1, then 2-1 at position 2):
    // the filter must iterate to the single survivor pair.
    graph::Arborescence a;
    a.parent = {-1, 0, 1};
    graph::Arborescence b;
    b.parent = {-1, 0, 1};
    graph::Arborescence c;
    c.parent = {-1, 0, 0};
    graph::Arborescence d;
    d.parent = {-1, 2, 0};
    std::vector<graph::Arborescence> forests{a, b, c, d};
    detail::majority_filter(forests);
    // Position 1: 0 wins 3-1, d dropped. Position 2: 1 wins 2-1,
    // c dropped. Survivors agree everywhere -> fixpoint.
    ASSERT_EQ(forests.size(), 2u);
    EXPECT_EQ(forests[0].parent, (std::vector<int>{-1, 0, 1}));
    EXPECT_EQ(forests[1].parent, (std::vector<int>{-1, 0, 1}));
}

TEST(MajorityFilter, CappedSetKeepsOnlyItsFirstForest)
{
    // 63 of the forests give member 1 parent 2, against the first
    // forest's 0. Below the cap that majority drops the first forest;
    // a set that reached RockConfig::max_alternatives is no vote's
    // electorate and keeps its first forest, the optimum, alone.
    auto make = [](std::size_t size) {
        std::vector<graph::Arborescence> forests(size);
        for (std::size_t i = 0; i < size; ++i)
            forests[i].parent = {-1, i == 0 ? 0 : 2, i % 2 ? 0 : 1};
        return forests;
    };
    const auto cap =
        static_cast<std::size_t>(RockConfig::max_alternatives);
    std::vector<graph::Arborescence> capped = make(cap);
    detail::majority_filter(capped);
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_EQ(capped[0].parent, (std::vector<int>{-1, 0, 1}));

    std::vector<graph::Arborescence> voted = make(cap - 1);
    detail::majority_filter(voted);
    ASSERT_FALSE(voted.empty());
    for (const auto& forest : voted)
        EXPECT_EQ(forest.parent[1], 2);
}

TEST(Pipeline, WordSetStrategiesAgreeOnStreams)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);
    for (auto strategy : {divergence::WordSetStrategy::ObservedUnion,
                          divergence::WordSetStrategy::Sampled}) {
        RockConfig config;
        config.words.strategy = strategy;
        ReconstructionResult result =
            reconstruct(compiled.image, config);
        eval::AppDistance d =
            eval::application_distance(result.hierarchy, gt);
        EXPECT_DOUBLE_EQ(d.avg_missing + d.avg_added, 0.0);
    }
}

// ---- memoized distances == the per-pair path ----------------------------

/** Every weighed edge of @p result equals pair_distance() over
 *  merge_word_sets() of the two types' tracelets, bit for bit, times
 *  the typeinf discount when a solved subtype fact agrees with it. */
void
expect_per_pair_weights(const ReconstructionResult& result,
                        const RockConfig& config)
{
    const auto& types = result.structural.types;
    const bool fuse = config.typeinf && !result.typeinf.types.empty();
    for (const auto& [edge, got] : result.distances) {
        const auto p = static_cast<std::size_t>(edge.first);
        const auto c = static_cast<std::size_t>(edge.second);
        const divergence::WordSet words = divergence::merge_word_sets(
            divergence::sorted_unique_words(result.type_sequences[p]),
            divergence::sorted_unique_words(result.type_sequences[c]));
        double want = 0.0;
        if (!words.empty())
            want = divergence::pair_distance(config.metric,
                                             *result.models[p],
                                             *result.models[c], words);
        if (fuse && result.typeinf.subtype(types[c], types[p]) &&
            want > 0.0)
            want *= config.typeinf_discount;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << edge.first << " -> " << edge.second;
    }
}

TEST(Pipeline, MemoizedDistancesEqualPerPairPath)
{
    std::vector<std::pair<std::string, bir::BinaryImage>> images;
    const corpus::CorpusProgram smoothing =
        corpus::benchmark_by_name("Smoothing").program;
    images.emplace_back(
        "Smoothing",
        toyc::compile(smoothing.program, smoothing.options).image);
    for (std::uint64_t seed : {2u, 5u, 11u, 23u}) {
        images.emplace_back(
            "sample_spec " + std::to_string(seed),
            toyc::compile(corpus::generate_program(fuzz::sample_spec(seed)))
                .image);
    }
    std::size_t weighed = 0;
    for (const auto& [name, image] : images) {
        for (int threads : {1, 4}) {
            SCOPED_TRACE(name + ", threads " + std::to_string(threads));
            RockConfig config;
            config.threads = threads;
            const ReconstructionResult result = reconstruct(image, config);
            expect_per_pair_weights(result, config);
            weighed += result.distances.size();
        }
    }
    EXPECT_GT(weighed, 0u);
}

// ---- the weighed-edge table ---------------------------------------------

TEST(DistanceTable, HoldsExactlyTheWeighedEdgesInChainOrder)
{
    obs::Counter& scheduled =
        obs::Registry::global().counter("divergence.pairs_scheduled");
    for (const corpus::BenchmarkSpec& spec : corpus::table2_benchmarks()) {
        SCOPED_TRACE(spec.name);
        const toyc::CompileResult compiled =
            toyc::compile(spec.program.program, spec.program.options);
        const std::uint64_t before = scheduled.value();
        const ReconstructionResult result = reconstruct(compiled.image);
        const DistanceTable& table = result.distances;
        EXPECT_EQ(table.size(), scheduled.value() - before);

        // Every key: found exactly when the edge is feasible and
        // neither forced nor pruned by a solved subtype fact.
        const structural::StructuralResult& st = result.structural;
        const bool fuse = !result.typeinf.types.empty();
        const int n = static_cast<int>(st.types.size());
        for (int c = 0; c < n; ++c) {
            const auto& feasible =
                st.possible_parents[static_cast<std::size_t>(c)];
            const auto forced = st.forced_parents.find(c);
            for (int p = 0; p < n; ++p) {
                const bool weighed =
                    std::binary_search(feasible.begin(), feasible.end(),
                                       p) &&
                    !(forced != st.forced_parents.end() &&
                      forced->second == p) &&
                    !(fuse &&
                      result.typeinf.subtype(
                          st.types[static_cast<std::size_t>(p)],
                          st.types[static_cast<std::size_t>(c)]));
                const auto it = table.find({p, c});
                ASSERT_EQ(it != table.end(), weighed) << p << " -> " << c;
                if (weighed) {
                    EXPECT_EQ(it->first, std::make_pair(p, c));
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(table.at({p, c})),
                              std::bit_cast<std::uint64_t>(it->second));
                } else {
                    EXPECT_THROW((void)table.at({p, c}), std::out_of_range)
                        << p << " -> " << c;
                }
            }
        }
        EXPECT_THROW((void)table.at({0, n}), std::out_of_range);
        EXPECT_THROW((void)table.at({0, -1}), std::out_of_range);

        // Iteration: family, then child ascending, then parent
        // ascending.
        std::tuple<int, int, int> last{-1, -1, -1};
        for (const auto& [edge, d] : table) {
            const std::tuple<int, int, int> key{
                st.family[static_cast<std::size_t>(edge.second)],
                edge.second, edge.first};
            EXPECT_LT(last, key) << edge.first << " -> " << edge.second;
            last = key;
        }
    }
}

TEST(Pipeline, WarmRunReplaysAlternativeCapCuts)
{
    // Fuzz sample 10 has a family with 64 or more co-optimal forests,
    // so its enumeration stops at the cap. A warm run solves nothing
    // and must count the same cut from its famsolve hit.
    const bir::BinaryImage image =
        toyc::compile(corpus::generate_program(fuzz::sample_spec(10)), {})
            .image;
    RockConfig config;
    config.cache =
        std::make_shared<cache::ArtifactCache>(cache::CacheOptions{});
    obs::Counter& cuts =
        obs::Registry::global().counter("budget.max_alternatives");

    std::uint64_t before = cuts.value();
    const ReconstructionResult cold = reconstruct(image, config);
    EXPECT_EQ(cuts.value() - before, 1u);

    const std::uint64_t hits = config.cache->stats().hits;
    before = cuts.value();
    const ReconstructionResult warm = reconstruct(image, config);
    EXPECT_GT(config.cache->stats().hits, hits);
    EXPECT_EQ(cuts.value() - before, 1u);
    EXPECT_EQ(first_difference(cold, warm), "");
}

// ---- the determinism contract: first_difference ------------------------

/** first_difference() between two reconstructions of the streams
 *  example after @p perturb has changed them. */
template <typename Perturb>
std::string
difference_after(Perturb perturb)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    ReconstructionResult a = reconstruct(compiled.image);
    ReconstructionResult b = reconstruct(compiled.image);
    perturb(a, b);
    return first_difference(a, b);
}

TEST(FirstDifference, NamesThePerturbedField)
{
    using Perturb = std::function<void(ReconstructionResult&)>;
    const std::vector<std::pair<std::string, Perturb>> cases = {
        {"", [](auto&) {}},
        {"", [](auto& r) { r.timing.total_ms += 1.0; }}, // not compared
        {"families[0].structurally_ambiguous",
         [](auto& r) { r.families[0].structurally_ambiguous ^= true; }},
        {"ambiguous_families", [](auto& r) { ++r.ambiguous_families; }},
        {"structural.possible_parents",
         [](auto& r) { r.structural.possible_parents[0].push_back(99); }},
        {"typeinf.direct_edges",
         [](auto& r) { r.typeinf.direct_edges.pop_back(); }},
        {"typeinf.constraints",
         [](auto& r) { ++r.typeinf.constraints.num_vars; }},
        {"analysis.type_tracelets",
         [](auto& r) {
             r.analysis.type_tracelets.begin()->second.pop_back();
         }},
        {"diagnostics", [](auto& r) { r.diagnostics.emplace_back(); }},
        {"alphabet",
         [](auto& r) {
             r.alphabet.intern({analysis::EventKind::CallDirect, 0, 7});
         }},
        {"type_sequences",
         [](auto& r) { r.type_sequences[0].push_back({0}); }},
        // One model retrained on one extra sequence; nothing else moves.
        {"models[1]",
         [](auto& r) {
             auto sequences = r.type_sequences[1];
             sequences.push_back({0, 0});
             r.models[1] = slm::train_model(
                 RockConfig{}.slm, r.alphabet.size(), sequences);
         }},
    };
    for (const auto& [want, perturb] : cases) {
        SCOPED_TRACE(want);
        EXPECT_EQ(difference_after([&](auto&, auto& b) { perturb(b); }),
                  want);
    }
}

TEST(FirstDifference, NamesTheParentAndTheDistance)
{
    int child = -1;
    std::string diff = difference_after([&](auto&, auto& b) {
        child = b.families[0].members.back();
        b.hierarchy.set_parent(child, -1);
    });
    EXPECT_EQ(diff, "hierarchy.parents(" + std::to_string(child) + ")");

    std::pair<int, int> edge;
    diff = difference_after([&](auto&, auto& b) {
        auto& [key, weight] = *b.distances.begin();
        edge = key;
        weight = std::nextafter(weight, 1e300); // one ulp
    });
    EXPECT_EQ(diff, "distances(" + std::to_string(edge.first) + "," +
                        std::to_string(edge.second) + ")");
}

TEST(FirstDifference, NamesADroppedDistanceOnEitherSide)
{
    // The streams family weighs three edges; drop the middle one.
    auto drop_middle = [](DistanceTable& table) {
        const std::pair<int, int> dropped = table[1].first;
        DistanceTable kept;
        for (const auto& [edge, d] : table) {
            if (edge == dropped)
                continue;
            kept.append(edge.first, edge.second);
            kept[kept.size() - 1].second = d;
        }
        table = std::move(kept);
        return dropped;
    };
    for (bool from_a : {false, true}) {
        SCOPED_TRACE(from_a ? "dropped from a" : "dropped from b");
        std::pair<int, int> edge;
        const std::string diff = difference_after([&](auto& a, auto& b) {
            ASSERT_EQ(b.distances.size(), 3u);
            edge = drop_middle(from_a ? a.distances : b.distances);
        });
        EXPECT_EQ(diff, "distances(" + std::to_string(edge.first) + "," +
                            std::to_string(edge.second) + ")");
    }
}

TEST(FirstDifference, AlternativesCompareInOrder)
{
    // The same two forests, swapped: alternatives[0] is the selected
    // one, so order is part of the contract.
    EXPECT_EQ(difference_after([](ReconstructionResult& a,
                                  ReconstructionResult& b) {
                  std::vector<int> other = a.families[0].alternatives[0];
                  other.back() = -1;
                  a.families[0].alternatives.push_back(other);
                  b.families[0].alternatives.insert(
                      b.families[0].alternatives.begin(), other);
              }),
              "families[0].alternatives");
}

} // namespace
