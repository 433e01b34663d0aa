#include "fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "analysis/vtable_scan.h"
#include "fuzz/oracles.h"
#include "fuzz/shrink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/log.h"
#include "support/rng.h"
#include "vm/vm.h"

namespace rock::fuzz {
namespace {

using corpus::GeneratorSpec;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Oracles selected by @p only (empty = all), registry order. */
std::vector<const Oracle*>
selected_oracles(const std::vector<std::string>& only)
{
    std::vector<const Oracle*> out;
    for (const auto& oracle : oracle_registry()) {
        if (only.empty() ||
            std::find(only.begin(), only.end(), oracle.name) !=
                only.end())
            out.push_back(&oracle);
    }
    return out;
}

/**
 * Run one case and return its first failing oracle, or an empty
 * optional-like failure (oracle empty) when everything passed.
 */
FuzzFailure
run_one(std::uint64_t case_seed, const GeneratorSpec& spec,
        const std::vector<const Oracle*>& oracles,
        const CaseConfig& config, FuzzReport& report)
{
    FuzzFailure failure;
    failure.case_seed = case_seed;
    failure.spec = spec;
    failure.shrunk = spec;

    FuzzCase fuzz_case;
    try {
        fuzz_case = run_case(spec, config);
    } catch (const std::exception& e) {
        failure.oracle = kNoCrashOracle;
        failure.detail = e.what();
        return failure;
    }

    OracleContext ctx{fuzz_case, config};
    for (const Oracle* oracle : oracles) {
        OracleVerdict verdict;
        try {
            obs::Span span("fuzz.oracle." + oracle->name);
            verdict = oracle->check(ctx);
        } catch (const std::exception& e) {
            verdict =
                OracleVerdict{false,
                              std::string("oracle threw: ") + e.what()};
        }
        if (!verdict.ok) {
            failure.oracle = oracle->name;
            failure.detail = verdict.detail;
            return failure;
        }
        ++report.oracle_passes[oracle->name];
        static obs::Counter& checks =
            obs::Registry::global().counter("fuzz.oracle_checks");
        checks.add();
    }
    return failure; // oracle empty: the case passed
}

/**
 * Pick the spec to fuzz for @p case_seed out of @p pool candidates.
 * Candidate 0 is always sample_spec(case_seed) -- the blind choice --
 * so a crash-on-build candidate 0 is returned as-is for run_one to
 * report. Other candidates come from derived seeds; each one is
 * compiled and concretely executed under rockvm (vtable-scan
 * approximation of the this-callee set: coverage does not need exact
 * event attribution), and the one covering the most blocks absent
 * from @p covered wins. The winner's blocks are folded into
 * @p covered.
 */
GeneratorSpec
pick_covering_spec(std::uint64_t case_seed, int pool,
                   const CaseConfig& config,
                   std::set<std::uint64_t>& covered)
{
    GeneratorSpec best;
    std::set<std::uint64_t> best_blocks;
    long best_fresh = -1;
    for (int j = 0; j < pool; ++j) {
        std::uint64_t sub =
            case_seed + static_cast<std::uint64_t>(j) *
                            0x517cc1b727220a95ull;
        GeneratorSpec cand = sample_spec(sub);
        try {
            toyc::Program prog = corpus::generate_program(cand);
            toyc::CompileResult compiled =
                toyc::compile(prog, config.compile);
            std::vector<analysis::VTableInfo> vtables =
                analysis::scan_vtables(compiled.image);
            std::vector<std::uint32_t> callees;
            for (const auto& vt : vtables)
                callees.insert(callees.end(), vt.slots.begin(),
                               vt.slots.end());
            vm::Interpreter interp(compiled.image, vtables, callees,
                                   vm::VmConfig{});
            vm::VmResult run = interp.run_image(1);
            long fresh = 0;
            for (std::uint64_t block : run.coverage)
                fresh += covered.count(block) == 0;
            if (fresh > best_fresh) {
                best_fresh = fresh;
                best = cand;
                best_blocks = std::move(run.coverage);
            }
        } catch (const std::exception&) {
            // The blind candidate must stay eligible even when it
            // refuses to build: blind fuzzing would have run it, and
            // run_one reports the crash as the no-crash oracle.
            if (j == 0)
                return cand;
        }
    }
    if (best_fresh < 0)
        return sample_spec(case_seed);
    covered.insert(best_blocks.begin(), best_blocks.end());
    if (best_fresh > 0) {
        static obs::Counter& fresh_blocks =
            obs::Registry::global().counter(
                "fuzz.coverage_new_blocks");
        fresh_blocks.add(static_cast<std::uint64_t>(best_fresh));
    }
    return best;
}

} // namespace

long
FuzzReport::total_passes() const
{
    long total = 0;
    for (const auto& [name, count] : oracle_passes) {
        (void)name;
        total += count;
    }
    return total;
}

GeneratorSpec
sample_spec(std::uint64_t case_seed)
{
    support::Rng rng(case_seed * 0x9e3779b97f4a7c15ull +
                     0x7f5eedull);
    GeneratorSpec spec;
    spec.seed = case_seed;

    enum Shape {
        kDegenerate,
        kDeepChain,
        kWideFan,
        kFoldNoise,
        kMultipleInheritance,
        kMixed,
        kNumShapes
    };
    switch (static_cast<Shape>(rng.index(kNumShapes))) {
    case kDegenerate:
        // 1-3 classes, minimal behavior: the corner the corpus never
        // exercises.
        spec.num_classes = 1 + static_cast<int>(rng.index(3));
        spec.num_trees =
            1 + static_cast<int>(rng.index(
                    static_cast<std::size_t>(spec.num_classes)));
        spec.max_depth = 1;
        spec.max_children = 1 + static_cast<int>(rng.index(2));
        spec.root_methods = 1 + static_cast<int>(rng.index(2));
        spec.new_method_prob = rng.chance(0.5) ? 0.0 : 1.0;
        spec.override_prob = 0.0;
        spec.scenarios_per_class = 1;
        spec.fold_noise_pairs = 0;
        spec.mi_prob = 0.0;
        break;
    case kDeepChain:
        spec.num_trees = 1;
        spec.num_classes = 6 + static_cast<int>(rng.index(12));
        spec.max_depth = spec.num_classes;
        spec.max_children = 1;
        spec.root_methods = 1 + static_cast<int>(rng.index(3));
        spec.new_method_prob = 0.4 + 0.5 * rng.real();
        spec.override_prob = 0.3 + 0.6 * rng.real();
        spec.fold_noise_pairs = 0;
        spec.mi_prob = 0.0;
        break;
    case kWideFan:
        spec.num_trees = 1 + static_cast<int>(rng.index(2));
        spec.num_classes = 8 + static_cast<int>(rng.index(16));
        spec.max_depth = 1 + static_cast<int>(rng.index(2));
        spec.max_children = 6 + static_cast<int>(rng.index(7));
        spec.root_methods = 2 + static_cast<int>(rng.index(2));
        spec.new_method_prob = 0.3 + 0.6 * rng.real();
        spec.override_prob = 0.2 + 0.6 * rng.real();
        spec.fold_noise_pairs = 0;
        spec.mi_prob = 0.0;
        break;
    case kFoldNoise:
        spec.num_trees = 2 + static_cast<int>(rng.index(3));
        spec.num_classes =
            std::max(spec.num_trees + 2,
                     6 + static_cast<int>(rng.index(14)));
        spec.max_depth = 2 + static_cast<int>(rng.index(3));
        spec.max_children = 2 + static_cast<int>(rng.index(4));
        spec.fold_noise_pairs = 2 + static_cast<int>(rng.index(7));
        spec.mi_prob = 0.0;
        break;
    case kMultipleInheritance:
        spec.num_trees = 2 + static_cast<int>(rng.index(3));
        spec.num_classes = 8 + static_cast<int>(rng.index(16));
        spec.max_depth = 2 + static_cast<int>(rng.index(3));
        spec.max_children = 2 + static_cast<int>(rng.index(4));
        spec.mi_prob = 0.2 + 0.3 * rng.real();
        spec.fold_noise_pairs = static_cast<int>(rng.index(3));
        break;
    case kMixed:
    default:
        spec.num_trees = 1 + static_cast<int>(rng.index(4));
        spec.num_classes =
            std::max(spec.num_trees,
                     2 + static_cast<int>(rng.index(28)));
        spec.max_depth = 1 + static_cast<int>(rng.index(5));
        spec.max_children = 1 + static_cast<int>(rng.index(8));
        spec.root_methods = 1 + static_cast<int>(rng.index(3));
        spec.new_method_prob = rng.real();
        spec.override_prob = rng.real();
        spec.fold_noise_pairs = static_cast<int>(rng.index(5));
        spec.mi_prob = rng.chance(0.3) ? 0.3 * rng.real() : 0.0;
        break;
    }
    spec.scenarios_per_class =
        std::max(spec.scenarios_per_class,
                 1 + static_cast<int>(rng.index(3)));
    spec.control_flow = rng.chance(0.7);
    // Rotate which usage function is the image entry so the
    // serialize-differential oracle sees entries at arbitrary
    // function-table indices, not just the natural first usage.
    spec.entry_usage = static_cast<int>(rng.index(8));
    return spec;
}

FuzzReport
run_fuzz(const FuzzOptions& options, const CaseConfig& config)
{
    FuzzReport report;
    report.cases_planned = options.seeds;
    std::vector<const Oracle*> oracles =
        selected_oracles(options.only);

    std::set<std::uint64_t> covered;
    double start = now_ms();
    for (int i = 0; i < options.seeds; ++i) {
        if (i > 0 && options.budget_ms > 0.0 &&
            now_ms() - start >= options.budget_ms) {
            report.budget_exhausted = true;
            break;
        }
        std::uint64_t case_seed =
            options.first_seed + static_cast<std::uint64_t>(i);
        GeneratorSpec spec =
            options.coverage_pool > 1
                ? pick_covering_spec(case_seed,
                                     options.coverage_pool, config,
                                     covered)
                : sample_spec(case_seed);
        FuzzFailure failure =
            run_one(case_seed, spec, oracles, config, report);
        ++report.cases_run;

        if (!failure.oracle.empty()) {
            ROCK_LOG_ERROR << "rockfuzz: seed " << case_seed
                           << " failed oracle '" << failure.oracle
                           << "': " << failure.detail;
            if (options.shrink) {
                ShrinkOutcome shrunk = shrink_spec(
                    failure.spec, failure.oracle, config);
                failure.shrunk = shrunk.spec;
                failure.shrink_steps = shrunk.accepted_steps;
                obs::Registry::global()
                    .counter("fuzz.shrink_steps")
                    .add(static_cast<std::uint64_t>(
                        shrunk.accepted_steps));
            }
            report.failures.push_back(std::move(failure));
            if (static_cast<int>(report.failures.size()) >=
                options.max_failures)
                break;
        }
    }
    report.elapsed_ms = now_ms() - start;
    report.covered_blocks = covered.size();
    obs::Registry& reg = obs::Registry::global();
    reg.counter("fuzz.cases_run").add(
        static_cast<std::uint64_t>(report.cases_run));
    reg.counter("fuzz.failures").add(report.failures.size());
    if (options.coverage_pool > 1)
        reg.gauge("fuzz.covered_blocks")
            .set(static_cast<double>(covered.size()));
    return report;
}

FuzzReport
replay(const Repro& repro, const CaseConfig& config,
       const std::vector<std::string>& only)
{
    FuzzReport report;
    report.cases_planned = 1;
    std::vector<const Oracle*> oracles = selected_oracles(only);

    double start = now_ms();
    FuzzFailure failure = run_one(repro.case_seed, repro.spec,
                                  oracles, config, report);
    report.cases_run = 1;
    if (!failure.oracle.empty())
        report.failures.push_back(std::move(failure));
    report.elapsed_ms = now_ms() - start;
    return report;
}

} // namespace rock::fuzz
