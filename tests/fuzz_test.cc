/**
 * @file
 * Meta-tests of the property-fuzzing harness (src/fuzz): the
 * registry is well-formed, a clean pipeline passes every oracle, an
 * injected pipeline bug is caught and shrinks to a tiny reproducer,
 * and repro files round-trip and replay.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "fuzz/case.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "fuzz/repro.h"
#include "fuzz/shrink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace {

using namespace rock;
using corpus::GeneratorSpec;

TEST(FuzzRegistry, WellFormed)
{
    const auto& registry = fuzz::oracle_registry();
    ASSERT_GE(registry.size(), 8u);
    std::set<std::string> names;
    for (const auto& oracle : registry) {
        EXPECT_FALSE(oracle.name.empty());
        EXPECT_FALSE(oracle.description.empty());
        EXPECT_TRUE(oracle.check != nullptr);
        EXPECT_TRUE(names.insert(oracle.name).second)
            << "duplicate oracle " << oracle.name;
        EXPECT_EQ(fuzz::find_oracle(oracle.name), &oracle);
    }
    EXPECT_EQ(fuzz::find_oracle("no-such-oracle"), nullptr);
    // The implicit crash oracle must not shadow a registered one.
    EXPECT_EQ(fuzz::find_oracle(fuzz::kNoCrashOracle), nullptr);
}

TEST(FuzzSampling, DeterministicAndValid)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        GeneratorSpec a = fuzz::sample_spec(seed);
        GeneratorSpec b = fuzz::sample_spec(seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_GE(a.num_trees, 1);
        EXPECT_GE(a.num_classes, a.num_trees);
        EXPECT_GE(a.max_depth, 1);
        EXPECT_GE(a.max_children, 1);
        EXPECT_GE(a.root_methods, 1);
        EXPECT_GE(a.scenarios_per_class, 1);
        EXPECT_GE(a.fold_noise_pairs, 0);
        EXPECT_GE(a.mi_prob, 0.0);
        EXPECT_EQ(a.seed, seed);
    }
    // Distinct seeds explore distinct shapes.
    EXPECT_NE(fuzz::sample_spec(1), fuzz::sample_spec(2));
}

TEST(FuzzCampaign, CleanPipelinePassesEveryOracle)
{
    fuzz::FuzzOptions options;
    options.seeds = 4;
    options.first_seed = 101;
    fuzz::FuzzReport report = fuzz::run_fuzz(options);
    EXPECT_TRUE(report.ok())
        << (report.failures.empty()
                ? std::string()
                : report.failures[0].oracle + ": " +
                      report.failures[0].detail);
    EXPECT_EQ(report.cases_run, 4);
    // Every registered oracle ran on every case.
    for (const auto& oracle : fuzz::oracle_registry())
        EXPECT_EQ(report.oracle_passes.at(oracle.name), 4)
            << oracle.name;
}

TEST(FuzzCampaign, BudgetStopsEarlyButRunsAtLeastOneCase)
{
    fuzz::FuzzOptions options;
    options.seeds = 50;
    options.budget_ms = 0.001;
    fuzz::FuzzReport report = fuzz::run_fuzz(options);
    EXPECT_EQ(report.cases_run, 1);
    EXPECT_TRUE(report.budget_exhausted);
}

TEST(FuzzCampaign, EachOracleCheckIsOneSpan)
{
    obs::Registry::global().reset();
    fuzz::FuzzOptions options;
    options.seeds = 2;
    options.first_seed = 101;
    options.only = {"structure", "vm-differential"};
    fuzz::FuzzReport report = fuzz::run_fuzz(options);
    ASSERT_TRUE(report.ok());
    std::map<std::string, int> spans;
    for (const auto& span : obs::span_log()) {
        if (span.name.rfind("fuzz.oracle.", 0) == 0)
            ++spans[span.name];
    }
    EXPECT_EQ(spans, (std::map<std::string, int>{
                         {"fuzz.oracle.structure", 2},
                         {"fuzz.oracle.vm-differential", 2}}));
}

TEST(FuzzMeta, InjectedBugIsCaughtAndShrinksSmall)
{
    // Deliberately break the pipeline output: drop every rule-3
    // forced edge, the bug class of paper Section 5.2.
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-forced-edges");

    fuzz::FuzzOptions options;
    options.seeds = 6;
    options.first_seed = 1;
    options.only = {"forced-parents"};
    options.max_failures = 1;
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);

    ASSERT_FALSE(report.failures.empty())
        << "the forced-parents oracle missed an injected bug";
    const fuzz::FuzzFailure& failure = report.failures[0];
    EXPECT_EQ(failure.oracle, "forced-parents");
    EXPECT_FALSE(failure.detail.empty());
    // Shrinking must reach a near-minimal hierarchy.
    EXPECT_LE(failure.shrunk.num_classes, 6);
    EXPECT_GE(failure.shrink_steps, 1);
    // The shrunk spec still reproduces the failure.
    EXPECT_TRUE(fuzz::spec_fails_oracle(failure.shrunk,
                                        "forced-parents", config));
    // ... and the unshrunk one does too.
    EXPECT_TRUE(fuzz::spec_fails_oracle(failure.spec,
                                        "forced-parents", config));
}

TEST(FuzzMeta, OrphanInjectionTripsStructureOracle)
{
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("orphan-last-type");
    fuzz::FuzzOptions options;
    options.seeds = 6;
    options.only = {"structure"};
    options.max_failures = 1;
    options.shrink = false;
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);
    ASSERT_FALSE(report.failures.empty());
    EXPECT_EQ(report.failures[0].oracle, "structure");
}

TEST(FuzzMeta, StaleCacheEntryIsCaughtByCacheConsistent)
{
    // Forge every cached famsolve artifact between the cold and the
    // warm run: valid framing, every member a root. Decoding succeeds,
    // so only the oracle's cold-vs-warm comparison can notice.
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("stale-cache-entry");
    fuzz::FuzzOptions options;
    options.seeds = 3;
    options.first_seed = 1;
    options.only = {"cache-consistent"};
    options.shrink = false;
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);
    ASSERT_EQ(report.failures.size(), 3u)
        << "the cache-consistent oracle missed a forged famsolve entry";
    for (const fuzz::FuzzFailure& failure : report.failures) {
        EXPECT_EQ(failure.oracle, "cache-consistent");
        EXPECT_NE(failure.detail.find("cold vs warm cache"),
                  std::string::npos)
            << failure.detail;
    }
}

TEST(FuzzMeta, DroppedTraceletsAreCaughtByVmDifferential)
{
    // Deliberately lose every static tracelet containing a virtual
    // dispatch -- a symexec lost-path bug class. The interpreter
    // still witnesses those tracelets concretely, so containment
    // (dynamic ⊆ static) breaks, even after the oracle's boosted
    // re-analysis (the hook re-applies to the boosted result too).
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-virtcall-tracelets");

    fuzz::FuzzOptions options;
    options.seeds = 6;
    options.first_seed = 1;
    options.only = {"vm-differential"};
    options.max_failures = 1;
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);

    ASSERT_FALSE(report.failures.empty())
        << "the vm-differential oracle missed an injected symexec bug";
    const fuzz::FuzzFailure& failure = report.failures[0];
    EXPECT_EQ(failure.oracle, "vm-differential");
    EXPECT_FALSE(failure.detail.empty());
    // Shrinks to a near-minimal program.
    EXPECT_LE(failure.shrunk.num_classes, 3);
    EXPECT_GE(failure.shrink_steps, 1);
    EXPECT_TRUE(fuzz::spec_fails_oracle(failure.shrunk,
                                        "vm-differential", config));
}

TEST(FuzzMeta, DroppedVptrConstraintsAreCaughtByTypeinfOracle)
{
    // Deliberately erase every VptrStore constraint and the solved
    // subtype facts -- a constraint-generation bug class (missed
    // stores). The typeinf-consistent oracle re-infers directly from
    // the image, so the gutted result cannot hide.
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-vptr-constraints");

    fuzz::FuzzOptions options;
    options.seeds = 6;
    options.first_seed = 1;
    options.only = {"typeinf-consistent"};
    options.max_failures = 1;
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);

    ASSERT_FALSE(report.failures.empty())
        << "the typeinf-consistent oracle missed an injected "
           "constraint-generation bug";
    const fuzz::FuzzFailure& failure = report.failures[0];
    EXPECT_EQ(failure.oracle, "typeinf-consistent");
    EXPECT_FALSE(failure.detail.empty());
    // Shrinks to a near-minimal program.
    EXPECT_LE(failure.shrunk.num_classes, 3);
    EXPECT_GE(failure.shrink_steps, 1);
    EXPECT_TRUE(fuzz::spec_fails_oracle(failure.shrunk,
                                        "typeinf-consistent", config));
}

TEST(FuzzMeta, CollapsedBatchDedupIsCaughtByServeDifferential)
{
    // Deliberately collapse the daemon's wave-dedup key -- the
    // request-aliasing bug class where two different images batched
    // into one analysis wave are served one answer. The
    // serve-differential oracle compares each daemon response
    // against a direct reconstruct() of the submitted bytes, so the
    // aliased response cannot hide.
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-batch-dedup");

    fuzz::FuzzOptions options;
    options.seeds = 6;
    options.first_seed = 1;
    options.only = {"serve-differential"};
    options.max_failures = 1;
    options.shrink = false; // each case boots a real daemon
    fuzz::FuzzReport report = fuzz::run_fuzz(options, config);

    ASSERT_FALSE(report.failures.empty())
        << "the serve-differential oracle missed an injected "
           "dedup-aliasing bug";
    const fuzz::FuzzFailure& failure = report.failures[0];
    EXPECT_EQ(failure.oracle, "serve-differential");
    EXPECT_FALSE(failure.detail.empty());
    EXPECT_TRUE(fuzz::spec_fails_oracle(failure.spec,
                                        "serve-differential", config));
}

TEST(FuzzMeta, ServeDifferentialHoldsWithoutInjection)
{
    fuzz::FuzzOptions options;
    options.seeds = 2;
    options.first_seed = 1;
    options.only = {"serve-differential"};
    fuzz::FuzzReport report = fuzz::run_fuzz(options);
    ASSERT_TRUE(report.failures.empty())
        << report.failures[0].oracle << ": "
        << report.failures[0].detail;
}

TEST(FuzzCampaign, CoverageGuidedSelectionCoversMoreBlocks)
{
    // At equal case count, picking each case out of a rockvm-executed
    // candidate pool by new-block coverage must beat blind sampling
    // on distinct blocks covered. Deterministic, so a fixed seed
    // range is a stable regression gate.
    fuzz::FuzzOptions blind;
    blind.seeds = 8;
    blind.first_seed = 101;
    blind.only = {"structure"};
    blind.coverage_pool = 2; // pool of blind winner + 1 alternative
    fuzz::FuzzReport pool2 = fuzz::run_fuzz(blind);

    fuzz::FuzzOptions guided = blind;
    guided.coverage_pool = 5;
    fuzz::FuzzReport pool5 = fuzz::run_fuzz(guided);

    EXPECT_GT(pool2.covered_blocks, 0u);
    EXPECT_GT(pool5.covered_blocks, pool2.covered_blocks);

    // Blind campaigns leave the interpreter out of the loop.
    fuzz::FuzzOptions off = blind;
    off.coverage_pool = 1;
    EXPECT_EQ(fuzz::run_fuzz(off).covered_blocks, 0u);
}

TEST(FuzzMeta, UnknownInjectionIsFatal)
{
    EXPECT_THROW(fuzz::injection_by_name("no-such-bug"),
                 support::FatalError);
}

TEST(FuzzRepro, SpecJsonRoundTripsEveryField)
{
    GeneratorSpec spec = fuzz::sample_spec(17);
    spec.class_prefix = "Q";
    spec.name_base = 4096;
    spec.new_method_prob = 0.12345678901234567;
    GeneratorSpec parsed =
        fuzz::spec_from_json(fuzz::spec_to_json(spec));
    EXPECT_EQ(parsed, spec);
}

TEST(FuzzRepro, FileRoundTripAndReplay)
{
    fuzz::Repro repro;
    repro.case_seed = 23;
    repro.oracle = "forced-parents";
    repro.spec = fuzz::sample_spec(23);

    std::string path = ::testing::TempDir() + "rockfuzz_test.json";
    fuzz::write_repro_file(repro, path);
    fuzz::Repro loaded = fuzz::read_repro_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.case_seed, repro.case_seed);
    EXPECT_EQ(loaded.oracle, repro.oracle);
    EXPECT_EQ(loaded.spec, repro.spec);

    // A clean pipeline replays green...
    fuzz::FuzzReport clean = fuzz::replay(loaded);
    EXPECT_TRUE(clean.ok());
    // ... and the injected bug reproduces on replay.
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-forced-edges");
    fuzz::FuzzReport broken =
        fuzz::replay(loaded, config, {"forced-parents"});
    EXPECT_FALSE(broken.ok());
}

TEST(FuzzRepro, MalformedJsonIsFatal)
{
    EXPECT_THROW(fuzz::repro_from_json("{}"), support::FatalError);
    EXPECT_THROW(fuzz::repro_from_json("not json at all"),
                 support::FatalError);
    EXPECT_THROW(
        fuzz::repro_from_json(
            "{\"rockfuzz_repro\": 1, \"case_seed\": 5, "
            "\"spec\": {\"num_classes\": 3"),
        support::FatalError);
    EXPECT_THROW(fuzz::read_repro_file("/nonexistent/nope.json"),
                 support::FatalError);
}

TEST(FuzzShrink, PreservesGeneratorPreconditions)
{
    // Shrinking an always-failing predicate walks the full ladder;
    // every intermediate spec must stay generator-valid (this would
    // throw inside generate_program otherwise).
    fuzz::CaseConfig config;
    config.hooks = fuzz::injection_by_name("drop-forced-edges");
    GeneratorSpec spec = fuzz::sample_spec(3);
    fuzz::ShrinkOutcome outcome =
        fuzz::shrink_spec(spec, "forced-parents", config);
    EXPECT_GE(outcome.spec.num_trees, 1);
    EXPECT_GE(outcome.spec.num_classes, outcome.spec.num_trees);
    EXPECT_LE(outcome.runs, 150);
    EXPECT_LE(outcome.spec.num_classes, spec.num_classes);
}

} // namespace
