#include "experiments/experiments.h"

#include <chrono>
#include <sstream>

#include "corpus/examples.h"
#include "corpus/generator.h"
#include "divergence/metrics.h"
#include "eval/ground_truth.h"
#include "graph/enumerate.h"
#include "rock/pipeline.h"
#include "rock/relaxed.h"
#include "support/parallel.h"
#include "support/str.h"
#include "toyc/compiler.h"

namespace rock::experiments {

namespace {

struct Compiled {
    toyc::CompileResult compiled;
    core::ReconstructionResult result;
    eval::GroundTruth gt;
};

Compiled
run_program(const corpus::CorpusProgram& program,
            const core::RockConfig& config = {})
{
    Compiled c;
    c.compiled = toyc::compile(program.program, program.options);
    c.result = core::reconstruct(c.compiled.image, config);
    c.gt = eval::ground_truth_from_debug(c.compiled.debug);
    return c;
}

} // namespace

std::vector<Table2Row>
run_table2()
{
    std::vector<Table2Row> rows;
    for (auto& spec : corpus::table2_benchmarks()) {
        Table2Row row;
        Compiled c = run_program(spec.program);
        row.measured_types = static_cast<int>(c.gt.types.size());
        row.measured_resolvable = c.result.ambiguous_families == 0;
        row.without_slm = eval::application_distance_structural(
            c.result.structural, c.gt);
        row.with_slm = eval::application_distance_worst(c.result, c.gt);
        row.spec = std::move(spec);
        rows.push_back(std::move(row));
    }
    return rows;
}

EchoparamsCase
run_echoparams_case()
{
    EchoparamsCase out;
    Compiled c =
        run_program(corpus::benchmark_by_name("echoparams").program);
    const auto& sr = c.result.structural;
    graph::Digraph skeleton(static_cast<int>(sr.types.size()));
    for (int child = 0;
         child < static_cast<int>(sr.types.size()); ++child) {
        for (int p :
             sr.possible_parents[static_cast<std::size_t>(child)])
            skeleton.add_edge(p, child, 0.0);
    }
    graph::EnumerateConfig config;
    config.max_results = 4096;
    out.structural_hierarchies =
        graph::enumerate_min_forests(skeleton, config).size();
    out.without_slm =
        eval::application_distance_structural(sr, c.gt);
    out.with_slm = eval::application_distance_worst(c.result, c.gt);
    return out;
}

SplicingCase
run_splicing_case()
{
    SplicingCase out;
    Compiled c = run_program(corpus::cgrid_program());
    for (std::uint32_t vt : c.gt.types)
        out.gt_roots += c.gt.parent.count(vt) == 0;
    for (int root : c.result.hierarchy.roots()) {
        if (!c.result.hierarchy.successors(root).empty())
            ++out.spliced_pairs;
    }
    out.distance =
        eval::application_distance(c.result.hierarchy, c.gt);
    return out;
}

std::vector<MetricScore>
run_metric_comparison()
{
    const char* names[] = {"echoparams", "tinyserver", "td_unittest",
                           "gperf",      "ShowTraf",
                           "CGridListCtrlEx"};
    std::vector<MetricScore> scores;
    for (auto metric : {divergence::MetricKind::KL,
                        divergence::MetricKind::KLReversed,
                        divergence::MetricKind::JSDivergence,
                        divergence::MetricKind::JSDistance}) {
        MetricScore score;
        score.metric = divergence::metric_name(metric);
        for (const char* name : names) {
            core::RockConfig config;
            config.metric = metric;
            Compiled c = run_program(
                corpus::benchmark_by_name(name).program, config);
            eval::AppDistance d =
                eval::application_distance_worst(c.result, c.gt);
            score.total_missing_plus_added +=
                d.avg_missing + d.avg_added;
        }
        scores.push_back(std::move(score));
    }
    return scores;
}

std::vector<ScalePoint>
run_scalability()
{
    std::vector<ScalePoint> points;
    for (int classes : {10, 20, 40, 80, 160}) {
        corpus::GeneratorSpec spec;
        spec.num_classes = classes;
        spec.num_trees = 2 + classes / 40;
        spec.seed = 42;
        toyc::CompileResult compiled =
            toyc::compile(corpus::generate_program(spec));
        core::RockConfig config;
        config.threads = 0; // all hardware threads
        core::ReconstructionResult result =
            core::reconstruct(compiled.image, config);
        ScalePoint point;
        point.classes = classes;
        point.functions = compiled.image.functions.size();
        point.paths = result.analysis.total_paths;
        point.analyze_ms = result.timing.analyze_ms;
        point.threads = support::resolve_threads(config.threads);
        point.timing = result.timing;
        points.push_back(point);
    }
    return points;
}

std::vector<TradeoffPoint>
run_cfi_tradeoff()
{
    const char* names[] = {"Analyzer", "Smoothing", "tinyserver",
                           "CGridListCtrlEx"};
    std::vector<TradeoffPoint> points;
    std::vector<Compiled> cases;
    for (const char* name : names)
        cases.push_back(
            run_program(corpus::benchmark_by_name(name).program));
    for (int k = 1; k <= 4; ++k) {
        TradeoffPoint point;
        point.k = k;
        for (auto& c : cases) {
            core::Hierarchy h = core::relaxed_hierarchy(c.result, k);
            eval::AppDistance d = eval::application_distance(h, c.gt);
            point.avg_missing += d.avg_missing;
            point.avg_added += d.avg_added;
        }
        point.avg_missing /= static_cast<double>(std::size(names));
        point.avg_added /= static_cast<double>(std::size(names));
        points.push_back(point);
    }
    return points;
}

TypeinfAblation
run_typeinf_ablation()
{
    TypeinfAblation out;
    corpus::CorpusProgram program = corpus::typeinf_ablation_program();
    toyc::CompileResult compiled =
        toyc::compile(program.program, program.options);
    eval::GroundTruth gt =
        eval::ground_truth_from_debug(compiled.debug);

    core::RockConfig dkl_only;
    dkl_only.typeinf = false;
    core::ReconstructionResult base =
        core::reconstruct(compiled.image, dkl_only);
    out.dkl_only = eval::application_distance(base.hierarchy, gt);
    out.dkl_only_worst = eval::application_distance_worst(base, gt);

    core::RockConfig fused; // typeinf on by default
    core::ReconstructionResult full =
        core::reconstruct(compiled.image, fused);
    out.types = static_cast<int>(full.structural.types.size());
    out.solved_facts = full.typeinf.direct_edges.size();
    out.with_typeinf = eval::application_distance(full.hierarchy, gt);
    out.with_typeinf_worst = eval::application_distance_worst(full, gt);

    // Determinism spot-check: the fused pipeline at all hardware
    // threads must reproduce the serial result bit-for-bit.
    core::RockConfig parallel = fused;
    parallel.threads = 0;
    core::ReconstructionResult wide =
        core::reconstruct(compiled.image, parallel);
    out.thread_invariant = core::first_difference(wide, full).empty();
    return out;
}

std::string
experiments_markdown()
{
    using support::format;
    std::ostringstream out;

    out << "# EXPERIMENTS — paper vs. measured\n\n"
        << "Generated by `tools/rockbench` (deterministic; "
           "re-run `./build/tools/rockbench --write EXPERIMENTS.md` "
           "after changes).\n\n"
        << "Substrate note: the paper evaluates on 19 stripped "
           "32-bit MSVC binaries; this reproduction evaluates on "
           "synthetic toyc/VM32 binaries engineered per benchmark to "
           "exhibit the ambiguity structure the paper describes "
           "(DESIGN.md §2). Absolute equality is expected only where "
           "a row's errors are fully determined by that structure; "
           "elsewhere the *shape* (who wins, direction and rough "
           "magnitude) is the reproduction target.\n\n";

    // ---- Table 2 --------------------------------------------------------
    out << "## Table 2 — application distance from H_P\n\n"
        << "| Benchmark | types (paper) | without SLMs miss/add "
           "(paper) | with SLMs miss/add (paper) | resolved |\n"
        << "|---|---|---|---|---|\n";
    for (const auto& row : run_table2()) {
        out << format(
            "| %s | %d (%d) | %.2f/%.2f (%.2f/%.2f) | %.2f/%.2f "
            "(%.2f/%.2f) | %s (paper: %s) |\n",
            row.spec.name.c_str(), row.measured_types,
            row.spec.paper_types, row.without_slm.avg_missing,
            row.without_slm.avg_added, row.spec.paper.missing_nostat,
            row.spec.paper.added_nostat, row.with_slm.avg_missing,
            row.with_slm.avg_added, row.spec.paper.missing_slm,
            row.spec.paper.added_slm,
            row.measured_resolvable ? "structural" : "behavioral",
            row.spec.paper_resolvable ? "structural" : "behavioral");
    }
    out << "\n";

    // ---- echoparams -----------------------------------------------------
    EchoparamsCase echo = run_echoparams_case();
    out << "## echoparams case study (§6.4)\n\n"
        << format("- structurally possible hierarchies: %zu "
                  "(paper: 64)\n",
                  echo.structural_hierarchies)
        << format("- without SLMs: missing %.2f, added %.2f "
                  "(paper: 0.00 / 2.25)\n",
                  echo.without_slm.avg_missing,
                  echo.without_slm.avg_added)
        << format("- with SLMs: missing %.2f, added %.2f "
                  "(paper: 0.00 / 0.00)\n\n",
                  echo.with_slm.avg_missing, echo.with_slm.avg_added);

    // ---- Fig. 9 ---------------------------------------------------------
    SplicingCase splice = run_splicing_case();
    out << "## Fig. 9 — splicing optimized-out parents\n\n"
        << format("- binary ground truth roots: %d (both abstract "
                  "parents eliminated)\n",
                  splice.gt_roots)
        << format("- sibling pairs spliced by the reconstruction: "
                  "%d of 2\n",
                  splice.spliced_pairs)
        << format("- scored against the binary ground truth: missing "
                  "%.2f, added %.2f (the 'added' types are the "
                  "recovered source relations)\n\n",
                  splice.distance.avg_missing,
                  splice.distance.avg_added);

    // ---- Other metrics --------------------------------------------------
    out << "## Other metrics ablation (§6.4)\n\n"
        << "| metric | total missing+added (6 benchmarks) |\n"
        << "|---|---|\n";
    for (const auto& score : run_metric_comparison()) {
        out << format("| %s | %.3f |\n", score.metric.c_str(),
                      score.total_missing_plus_added);
    }
    out << "\nPaper's finding reproduced when `kl` has the lowest "
           "total (symmetric metrics lose because the parent/child "
           "relation is asymmetric).\n\n";

    // ---- Structural-subtyping fusion ------------------------------------
    TypeinfAblation ti = run_typeinf_ablation();
    out << "## Structural-subtyping fusion (typeinf) on the MI "
           "corpus\n\n"
        << format(
               "`typeinf_mi`: %d binary types with multiple "
               "inheritance, folded noise methods (error source 1) "
               "that make a decoy sibling the statistically closest "
               "parent, and derived-class parent-ctor calls inlined "
               "away (no rule-3 forced parent). The fused pass "
               "solved %zu direct derives-from facts.\n\n",
               ti.types, ti.solved_facts)
        << "| objective | miss/add (chosen) | miss/add (worst "
           "alternative) |\n|---|---|---|\n"
        << format("| DKL only | %.2f/%.2f | %.2f/%.2f |\n",
                  ti.dkl_only.avg_missing, ti.dkl_only.avg_added,
                  ti.dkl_only_worst.avg_missing,
                  ti.dkl_only_worst.avg_added)
        << format("| DKL + typeinf | %.2f/%.2f | %.2f/%.2f |\n",
                  ti.with_typeinf.avg_missing,
                  ti.with_typeinf.avg_added,
                  ti.with_typeinf_worst.avg_missing,
                  ti.with_typeinf_worst.avg_added)
        << format(
               "\nThe solved facts repair every decoy edge the "
               "statistical objective picks (missing drops to zero); "
               "the fused run at every hardware thread count is "
               "bit-identical to the serial one (%s).\n\n",
               ti.thread_invariant ? "verified" : "VIOLATED");

    // ---- Scalability ----------------------------------------------------
    out << "## Scalability (§3.2)\n\n"
        << "| classes | functions | paths | analyze (ms) | "
           "us/function | reconstruct (ms) |\n|---|---|---|---|---|"
           "---|\n";
    for (const auto& point : run_scalability()) {
        out << format("| %d | %zu | %ld | %.2f | %.2f | %.2f |\n",
                      point.classes, point.functions, point.paths,
                      point.analyze_ms,
                      point.analyze_ms * 1000.0 /
                          static_cast<double>(point.functions),
                      point.timing.total_ms);
    }
    out << "\nIntra-procedural analysis: per-function cost stays "
           "flat as programs grow. (Timings are machine-dependent; "
           "`bench/pipeline_scaling` tracks the per-stage profile "
           "and thread-count speedup as JSON.)\n\n";

    // ---- CFI trade-off --------------------------------------------------
    out << "## k-parent CFI trade-off (§6.4)\n\n"
        << "| k | avg missing | avg added |\n|---|---|---|\n";
    for (const auto& point : run_cfi_tradeoff()) {
        out << format("| %d | %.3f | %.3f |\n", point.k,
                      point.avg_missing, point.avg_added);
    }
    out << "\nAssigning several parents per type trades false "
           "negatives (missing) for false positives (added), as the "
           "paper states.\n";

    return out.str();
}

} // namespace rock::experiments
