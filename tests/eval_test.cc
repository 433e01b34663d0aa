/**
 * @file
 * Unit tests for ground truth extraction and the application
 * distance (paper Sections 6.2-6.3).
 */
#include <gtest/gtest.h>

#include "support/error.h"
#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "eval/application_distance.h"
#include "eval/forest_metrics.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::eval;

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

TEST(GroundTruth, SuccessorsFollowParentChains)
{
    GroundTruth gt;
    gt.types = {1, 2, 3, 4};
    gt.parent[2] = 1;
    gt.parent[3] = 2;
    // 4 is a root.
    EXPECT_EQ(gt.successors(1), (std::set<std::uint32_t>{2, 3}));
    EXPECT_EQ(gt.successors(2), (std::set<std::uint32_t>{3}));
    EXPECT_TRUE(gt.successors(3).empty());
    EXPECT_TRUE(gt.successors(4).empty());
}

/** The ancestor-chain definition of ground-truth successors: every
 *  type with @p type on its parent chain. */
std::set<std::uint32_t>
successors_by_chain(const GroundTruth& gt, std::uint32_t type)
{
    std::set<std::uint32_t> out;
    for (std::uint32_t t : gt.types) {
        for (auto it = gt.parent.find(t); it != gt.parent.end();
             it = gt.parent.find(it->second)) {
            if (it->second == type) {
                out.insert(t);
                break;
            }
        }
    }
    return out;
}

TEST(GroundTruth, SuccessorsMatchAncestorChainsOnTable2)
{
    for (const auto& spec : corpus::table2_benchmarks()) {
        toyc::CompileResult compiled =
            toyc::compile(spec.program.program, spec.program.options);
        const GroundTruth gt = ground_truth_from_debug(compiled.debug);
        // Every type, every vtable the parent map names and every
        // synthetic vtable; the last two may lie outside types.
        std::set<std::uint32_t> queries(gt.types.begin(), gt.types.end());
        for (const auto& [child, parent] : gt.parent)
            queries.insert(parent);
        queries.insert(gt.synthetic.begin(), gt.synthetic.end());
        for (std::uint32_t q : queries) {
            EXPECT_EQ(gt.successors(q), successors_by_chain(gt, q))
                << spec.name << " " << q;
        }
    }
}

TEST(GroundTruth, SuccessorsPassThroughVtablesOutsideTypes)
{
    // 10 and 40 are named only by the parent map: 40 <- 50, 10 <- 20
    // <- 30 and 10 <- 40.
    GroundTruth gt;
    gt.types = {20, 30, 50};
    gt.parent[20] = 10;
    gt.parent[30] = 20;
    gt.parent[40] = 10;
    gt.parent[50] = 40;
    EXPECT_EQ(gt.successors(10), (std::set<std::uint32_t>{20, 30, 50}));
    EXPECT_EQ(gt.successors(40), (std::set<std::uint32_t>{50}));
    EXPECT_EQ(gt.successors(20), (std::set<std::uint32_t>{30}));
    EXPECT_TRUE(gt.successors(99).empty());
    for (std::uint32_t q : {10u, 20u, 30u, 40u, 50u, 99u})
        EXPECT_EQ(gt.successors(q), successors_by_chain(gt, q)) << q;
}

TEST(GroundTruth, FromDebugSkipsSynthetic)
{
    corpus::CorpusProgram example =
        corpus::multiple_inheritance_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    GroundTruth gt = ground_truth_from_debug(compiled.debug);
    // 4 classes; the secondary Model::Observable vtable is excluded.
    EXPECT_EQ(gt.types.size(), 4u);
    EXPECT_EQ(gt.synthetic.size(), 1u);
}

TEST(GroundTruth, RttiAgreesWithDebug)
{
    // The two independent ground-truth sources must coincide on every
    // benchmark program.
    for (const auto& spec : corpus::table2_benchmarks()) {
        toyc::CompileOptions opts = spec.program.options;
        opts.link.emit_rtti = true;
        toyc::CompileResult compiled =
            toyc::compile(spec.program.program, opts);
        GroundTruth from_debug =
            ground_truth_from_debug(compiled.debug);
        GroundTruth from_rtti = ground_truth_from_rtti(compiled.image);
        EXPECT_EQ(from_debug.types, from_rtti.types) << spec.name;
        EXPECT_EQ(from_debug.parent, from_rtti.parent) << spec.name;
    }
}

TEST(GroundTruth, RttiRequiresRttiImage)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    EXPECT_THROW(ground_truth_from_rtti(compiled.image),
                 support::FatalError);
}

// ---------------------------------------------------------------------
// Application distance, hand-computed
// ---------------------------------------------------------------------

/** GT: 1 <- 2 <- 3, plus root 4. */
GroundTruth
chain_gt()
{
    GroundTruth gt;
    gt.types = {1, 2, 3, 4};
    gt.parent[2] = 1;
    gt.parent[3] = 2;
    return gt;
}

TEST(AppDistance, PerfectHierarchyScoresZero)
{
    core::Hierarchy h({1, 2, 3, 4});
    h.set_parent(1, 0);
    h.set_parent(2, 1);
    AppDistance d = application_distance(h, chain_gt());
    EXPECT_DOUBLE_EQ(d.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(d.avg_added, 0.0);
    EXPECT_EQ(d.num_types, 4);
}

TEST(AppDistance, MissingCountsLostSuccessors)
{
    // Reconstruction broke the 2<-3 edge: type 3 is a root.
    core::Hierarchy h({1, 2, 3, 4});
    h.set_parent(1, 0);
    AppDistance d = application_distance(h, chain_gt());
    // successors_GT(1) = {2,3} vs {2}: missing 1.
    // successors_GT(2) = {3} vs {}: missing 1. Total 2/4.
    EXPECT_DOUBLE_EQ(d.avg_missing, 0.5);
    EXPECT_DOUBLE_EQ(d.avg_added, 0.0);
    EXPECT_EQ(d.types_with_missing, 2);
}

TEST(AppDistance, AddedCountsForeignSuccessors)
{
    // Reconstruction hung root 4 under 3.
    core::Hierarchy h({1, 2, 3, 4});
    h.set_parent(1, 0);
    h.set_parent(2, 1);
    h.set_parent(3, 2);
    AppDistance d = application_distance(h, chain_gt());
    // 4 now appears under 3, 2 and 1: added 3 over 4 types.
    EXPECT_DOUBLE_EQ(d.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(d.avg_added, 0.75);
    EXPECT_EQ(d.types_with_added, 3);
}

TEST(AppDistance, SyntheticTypesIgnored)
{
    // A synthetic intermediate in the reconstruction must not count.
    GroundTruth gt;
    gt.types = {1, 3};
    gt.parent[3] = 1;
    gt.synthetic = {2};
    core::Hierarchy h({1, 2, 3});
    h.set_parent(1, 0); // synthetic 2 under 1
    h.set_parent(2, 1); // 3 under synthetic 2
    AppDistance d = application_distance(h, gt);
    // successors(1) = {2,3} restricted to GT = {3}: exact.
    EXPECT_DOUBLE_EQ(d.avg_missing, 0.0);
    EXPECT_DOUBLE_EQ(d.avg_added, 0.0);
}

TEST(AppDistance, EmptyGroundTruth)
{
    core::Hierarchy h{std::vector<std::uint32_t>{}};
    AppDistance d = application_distance(h, GroundTruth{});
    EXPECT_EQ(d.num_types, 0);
    EXPECT_DOUBLE_EQ(d.avg_missing, 0.0);
}

// ---------------------------------------------------------------------
// Worst-case over alternatives
// ---------------------------------------------------------------------

TEST(AppDistance, WorstCasePicksLeastPreciseAlternative)
{
    corpus::CorpusProgram example = corpus::echoparams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    core::ReconstructionResult result = core::reconstruct(compiled.image);
    // A second alternative per family, under the enumeration's cap (a
    // set that reaches it keeps only its optimum): the members chained
    // in member order. The worst case must pick it wherever it is less
    // precise, so worst >= best.
    for (core::FamilyResult& fam : result.families) {
        if (fam.members.size() < 2)
            continue;
        std::vector<int> chain(fam.members.size(), -1);
        for (std::size_t i = 1; i < chain.size(); ++i)
            chain[i] = fam.members[i - 1];
        fam.alternatives.push_back(std::move(chain));
    }
    GroundTruth gt = ground_truth_from_debug(compiled.debug);
    AppDistance best =
        application_distance(result.hierarchy, gt);
    AppDistance worst = application_distance_worst(result, gt);
    EXPECT_GE(worst.avg_missing + worst.avg_added,
              best.avg_missing + best.avg_added);
    EXPECT_GT(worst.avg_added, 0.0);
}

// ---------------------------------------------------------------------
// Forest metrics
// ---------------------------------------------------------------------

TEST(ForestMetrics, PerfectReconstruction)
{
    core::Hierarchy h({1, 2, 3, 4});
    h.set_parent(1, 0);
    h.set_parent(2, 1);
    ForestMetrics m = forest_metrics(h, chain_gt());
    EXPECT_DOUBLE_EQ(m.parent_accuracy, 1.0);
    EXPECT_DOUBLE_EQ(m.edge_precision, 1.0);
    EXPECT_DOUBLE_EQ(m.edge_recall, 1.0);
}

TEST(ForestMetrics, WrongParentPenalized)
{
    core::Hierarchy h({1, 2, 3, 4});
    h.set_parent(1, 0);
    h.set_parent(2, 0); // wrong: GT says 3's parent is 2
    ForestMetrics m = forest_metrics(h, chain_gt());
    EXPECT_DOUBLE_EQ(m.parent_accuracy, 0.75);
    EXPECT_DOUBLE_EQ(m.edge_precision, 0.5);
    EXPECT_DOUBLE_EQ(m.edge_recall, 0.5);
}

TEST(ForestMetrics, SkipsSyntheticIntermediates)
{
    GroundTruth gt;
    gt.types = {1, 3};
    gt.parent[3] = 1;
    gt.synthetic = {2};
    core::Hierarchy h({1, 2, 3});
    h.set_parent(1, 0);
    h.set_parent(2, 1);
    ForestMetrics m = forest_metrics(h, gt);
    // 3's effective parent is 1 after skipping synthetic 2.
    EXPECT_DOUBLE_EQ(m.parent_accuracy, 1.0);
}

} // namespace
