/**
 * @file
 * Differential regression: run every bundled --builtin image under
 * rockvm and assert (a) zero traps on clean toyc output and (b) the
 * containment invariant dynamic ⊆ static -- every typed tracelet the
 * interpreter witnesses concretely also appears in the tracelet set
 * symexec extracts statically for the same type.
 *
 * The static side runs with a boosted path budget (max_paths high
 * enough that no builtin saturates it): the default budget caps
 * exploration per function, and a concretely reachable path that the
 * static side *truncated away* would be a budget artifact, not a
 * shadow-state bug. The tier-1 vm-differential fuzz oracle applies
 * the same escalation before declaring a miss.
 *
 * Both sides take their knobs from one SymExecConfig; the suite runs
 * the defaults and six non-default settings (tracelet length 3 and
 * 11, sliding windows, first-owner attribution, one backjump, a
 * 64-step path cap).
 */
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "toyc/compiler.h"
#include "vm/vm.h"

namespace {

using namespace rock;
using vm::Interpreter;
using vm::VmConfig;
using vm::VmResult;

/** All 24 bundled programs: 5 examples + 19 Table 2 benchmarks. */
std::vector<corpus::CorpusProgram>
builtin_programs()
{
    std::vector<corpus::CorpusProgram> out = {
        corpus::streams_program(),      corpus::datasources_program(),
        corpus::echoparams_program(),   corpus::cgrid_program(),
        corpus::multiple_inheritance_program(),
    };
    for (const auto& bench : corpus::table2_benchmarks())
        out.push_back(bench.program);
    return out;
}

/**
 * Static tracelet sets per type under @p se, boosted so paths are not
 * truncated.
 */
std::map<std::uint32_t, std::set<analysis::Tracelet>>
static_sets(const bir::BinaryImage& image, analysis::SymExecConfig se)
{
    se.max_paths = 4096;
    analysis::AnalysisResult result = analysis::analyze(image, se);
    std::map<std::uint32_t, std::set<analysis::Tracelet>> sets;
    for (const auto& [type, tracelets] : result.type_tracelets)
        sets[type].insert(tracelets.begin(), tracelets.end());
    return sets;
}

/**
 * Analyze every builtin and run it under rockvm, both from @p se, and
 * assert (a) zero traps and (b) dynamic ⊆ static per type.
 */
void
expect_builtins_clean_and_contained(const analysis::SymExecConfig& se)
{
    for (const auto& prog : builtin_programs()) {
        SCOPED_TRACE(prog.name);
        toyc::CompileResult built =
            toyc::compile(prog.program, prog.options);
        analysis::AnalysisResult analysis =
            analysis::analyze(built.image, se);
        VmConfig vcfg;
        vcfg.symexec = se;
        Interpreter interp(built.image, analysis, vcfg);
        VmResult dynamic = interp.run_image(1);

        // (a) clean images never trap.
        ASSERT_TRUE(dynamic.traps.empty())
            << prog.name << ": first trap "
            << vm::trap_name(dynamic.traps.front().kind) << " at 0x"
            << std::hex << dynamic.traps.front().addr;

        // The run did real work.
        EXPECT_GT(dynamic.stats.steps, 0u);
        EXPECT_FALSE(dynamic.coverage.empty());

        // (b) dynamic ⊆ static per type.
        auto sets = static_sets(built.image, se);
        for (const auto& [type, tracelets] : dynamic.type_tracelets) {
            auto it = sets.find(type);
            ASSERT_NE(it, sets.end())
                << prog.name << ": type 0x" << std::hex << type
                << " witnessed dynamically but absent statically";
            for (const auto& t : tracelets) {
                EXPECT_EQ(it->second.count(t), 1u)
                    << prog.name << ": dynamic tracelet for type 0x"
                    << std::hex << type
                    << " missing from the static set";
            }
        }
    }
}

TEST(VmDifferential, AllBuiltinsRunCleanAndContained)
{
    expect_builtins_clean_and_contained(analysis::SymExecConfig{});
}

/** One non-default SymExecConfig knob setting, named for the test. */
struct KnobCase {
    const char* name;
    void (*apply)(analysis::SymExecConfig&);
};

void
PrintTo(const KnobCase& knob, std::ostream* os)
{
    *os << knob.name;
}

class VmDifferentialKnobs : public ::testing::TestWithParam<KnobCase>
{
};

TEST_P(VmDifferentialKnobs, AllBuiltinsRunCleanAndContained)
{
    analysis::SymExecConfig se;
    GetParam().apply(se);
    expect_builtins_clean_and_contained(se);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, VmDifferentialKnobs,
    ::testing::Values(
        KnobCase{"TraceletLen3",
                 [](analysis::SymExecConfig& c) { c.tracelet_len = 3; }},
        KnobCase{"TraceletLen11",
                 [](analysis::SymExecConfig& c) {
                     c.tracelet_len = 11;
                 }},
        KnobCase{"SlidingWindows",
                 [](analysis::SymExecConfig& c) {
                     c.sliding_windows = true;
                 }},
        KnobCase{"FirstOwnerOnly",
                 [](analysis::SymExecConfig& c) {
                     c.attribute_shared_methods_to_all = false;
                 }},
        KnobCase{"MaxBackjumps1",
                 [](analysis::SymExecConfig& c) {
                     c.max_backjumps = 1;
                 }},
        KnobCase{"MaxSteps64",
                 [](analysis::SymExecConfig& c) { c.max_steps = 64; }}),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
        return std::string(info.param.name);
    });

TEST(VmDifferential, DynamicTypedCoverageIsNonTrivial)
{
    // At least the canonical single-inheritance example must witness
    // typed tracelets dynamically -- an empty dynamic side would make
    // the containment check vacuous.
    corpus::CorpusProgram prog = corpus::streams_program();
    toyc::CompileResult built =
        toyc::compile(prog.program, prog.options);
    analysis::AnalysisResult analysis = analysis::analyze(built.image);
    Interpreter interp(built.image, analysis, VmConfig{});
    VmResult dynamic = interp.run_image(1);
    EXPECT_FALSE(dynamic.type_tracelets.empty());
    std::size_t total = 0;
    for (const auto& [type, tracelets] : dynamic.type_tracelets)
        total += tracelets.size();
    EXPECT_GE(total, 3u);
}

} // namespace
