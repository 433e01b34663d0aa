/**
 * @file
 * Unit tests for the structural analysis (paper Section 5).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/analyze.h"
#include "corpus/builder.h"
#include "corpus/examples.h"
#include "structural/structural.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::structural;
using analysis::VTableInfo;

/** Compile and analyze, returning everything the tests inspect. */
struct Analyzed {
    toyc::CompileResult compiled;
    analysis::AnalysisResult analysis;
    StructuralResult structural;

    int
    index(const std::string& cls) const
    {
        return structural.index_of(
            compiled.debug.class_to_vtable.at(cls));
    }
};

Analyzed
run(const corpus::CorpusProgram& program)
{
    Analyzed a;
    a.compiled = toyc::compile(program.program, program.options);
    a.analysis = analysis::analyze(a.compiled.image);
    a.structural = structural_analysis(a.analysis.vtables,
                                       a.analysis.evidence,
                                       a.analysis.ctor_types);
    return a;
}

TEST(Families, SharedImplementationsCluster)
{
    Analyzed a = run(corpus::streams_program());
    ASSERT_EQ(a.structural.types.size(), 3u);
    // All three stream classes share Stream::send -> one family.
    EXPECT_EQ(a.structural.num_families(), 1);
}

TEST(Families, UnrelatedTreesStaySeparate)
{
    corpus::ProgramBuilder b("two_trees");
    b.cls("A", {}, {"fa"}, {}, 1);
    b.cls("B", {"A"}, {"fb"}, {}, 1);
    b.cls("X", {}, {"fx"}, {}, 1);
    b.cls("Y", {"X"}, {"fy"}, {}, 1);
    b.motif("A", {"fa"});
    b.motif("B", {"fb"});
    b.motif("X", {"fx"});
    b.motif("Y", {"fy"});
    b.standard_scenarios(1);
    corpus::CorpusProgram program;
    program.program = b.build();
    Analyzed a = run(program);
    EXPECT_EQ(a.structural.num_families(), 2);
    EXPECT_EQ(a.structural.family[static_cast<std::size_t>(
                  a.index("A"))],
              a.structural.family[static_cast<std::size_t>(
                  a.index("B"))]);
    EXPECT_NE(a.structural.family[static_cast<std::size_t>(
                  a.index("A"))],
              a.structural.family[static_cast<std::size_t>(
                  a.index("X"))]);
}

TEST(Families, PurecallIsNotAFingerprint)
{
    // Two unrelated abstract-rooted trees whose vtables both contain
    // _purecall entries must not merge.
    corpus::ProgramBuilder b("pure_trees");
    b.cls("A", {}, {"fa", "ga"}, {}, 1);
    b.pure("A", "fa");
    b.cls("B", {"A"}, {}, {"fa"}, 1);
    b.cls("X", {}, {"fx", "gx"}, {}, 1);
    b.pure("X", "fx");
    b.cls("Y", {"X"}, {}, {"fx"}, 1);
    b.motif("B", {"fa", "ga"});
    b.motif("Y", {"fx", "gx"});
    b.standard_scenarios(1);
    corpus::CorpusProgram program;
    program.program = b.build();
    // Keep abstract vtables so purecall actually appears.
    program.options.omit_abstract_classes = false;
    Analyzed a = run(program);
    ASSERT_EQ(a.structural.types.size(), 4u);
    EXPECT_EQ(a.structural.num_families(), 2);
}

TEST(Elimination, Rule1SlotCounts)
{
    Analyzed a = run(corpus::streams_program());
    int stream = a.index("Stream");                // 1 slot
    int confirmable = a.index("ConfirmableStream"); // 2 slots
    int flushable = a.index("FlushableStream");     // 3 slots

    // Stream (smallest) can have no parent.
    EXPECT_TRUE(a.structural
                    .possible_parents[static_cast<std::size_t>(stream)]
                    .empty());
    // Confirmable's only possible parent is Stream.
    EXPECT_EQ(a.structural.possible_parents[static_cast<std::size_t>(
                  confirmable)],
              (std::vector<int>{stream}));
    // Flushable may derive from either (the paper's Fig. 6 dilemma).
    EXPECT_EQ(a.structural.possible_parents[static_cast<std::size_t>(
                  flushable)],
              (std::vector<int>{stream, confirmable}));
}

TEST(Elimination, Rule2PureSlots)
{
    // Abstract A (pure at slot 0) and concrete sibling-shaped B with
    // the same slot count: B cannot be A's parent because A would be
    // re-abstracting an implemented slot; A *can* be B's parent.
    corpus::ProgramBuilder b("rule2");
    b.cls("A", {}, {"f", "g"}, {}, 1);
    b.pure("A", "f");
    b.cls("B", {"A"}, {}, {"f"}, 1);
    b.motif("B", {"f", "g"});
    b.standard_scenarios(1);
    corpus::CorpusProgram program;
    program.program = b.build();
    program.options.omit_abstract_classes = false;
    // Remove ctor cues so rule 3 does not short-circuit the test.
    program.options.parent_ctor_calls = false;
    Analyzed a = run(program);

    int abstract_a = a.index("A");
    int concrete_b = a.index("B");
    const auto& parents_of_a =
        a.structural
            .possible_parents[static_cast<std::size_t>(abstract_a)];
    const auto& parents_of_b =
        a.structural
            .possible_parents[static_cast<std::size_t>(concrete_b)];
    EXPECT_FALSE(std::binary_search(parents_of_a.begin(),
                                    parents_of_a.end(), concrete_b));
    EXPECT_TRUE(std::binary_search(parents_of_b.begin(),
                                   parents_of_b.end(), abstract_a));
}

TEST(Elimination, Rule3CtorCallForcesParent)
{
    corpus::CorpusProgram program = corpus::datasources_program();
    program.options.parent_ctor_calls = true; // keep the cues
    Analyzed a = run(program);

    int base = a.index("DataSource");
    int internal = a.index("InternalDataSource");
    int cached = a.index("CachedInternalSource");

    auto forced = a.structural.forced_parents;
    ASSERT_EQ(forced.count(internal), 1u);
    EXPECT_EQ(forced.at(internal), base);
    ASSERT_EQ(forced.count(cached), 1u);
    EXPECT_EQ(forced.at(cached), internal);
    // Forced parents narrow the candidate set to exactly one.
    EXPECT_EQ(a.structural.possible_parents[static_cast<std::size_t>(
                  cached)],
              (std::vector<int>{internal}));
}

TEST(Elimination, Rule3JoinsFamilies)
{
    // A child that overrides ALL parent methods shares nothing with
    // the parent's vtable, but the ctor-call evidence re-joins the
    // families.
    corpus::ProgramBuilder b("rejoin");
    b.cls("P", {}, {"f", "g"}, {}, 1);
    b.cls("C", {"P"}, {"h"}, {"f", "g"}, 1);
    b.motif("P", {"f", "g"});
    b.motif("C", {"h"});
    b.standard_scenarios(1);
    corpus::CorpusProgram with_cue;
    with_cue.program = b.build();
    with_cue.options.parent_ctor_calls = true;
    Analyzed joined = run(with_cue);
    EXPECT_EQ(joined.structural.num_families(), 1);

    corpus::CorpusProgram no_cue = with_cue;
    no_cue.options.parent_ctor_calls = false;
    Analyzed split = run(no_cue);
    EXPECT_EQ(split.structural.num_families(), 2);
}

TEST(MultipleInheritance, ParentCountsAndSecondaries)
{
    Analyzed a = run(corpus::multiple_inheritance_program());
    int model = a.index("Model");
    ASSERT_EQ(a.structural.parent_counts.count(model), 1u);
    EXPECT_EQ(a.structural.parent_counts.at(model), 2);

    // Exactly one secondary vtable, owned by Model.
    ASSERT_EQ(a.structural.secondary_of.size(), 1u);
    EXPECT_EQ(a.structural.secondary_of.begin()->second, model);
}

TEST(StructuralResult, IndexAndMembers)
{
    Analyzed a = run(corpus::streams_program());
    EXPECT_EQ(a.structural.index_of(0xdeadbeef), -1);
    auto members = a.structural.family_members(0);
    EXPECT_EQ(members.size(), 3u);
    for (int m : members) {
        EXPECT_EQ(a.structural.family[static_cast<std::size_t>(m)], 0);
    }
}

} // namespace
