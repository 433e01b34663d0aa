/**
 * @file
 * Programmatic experiment runner: every table and figure of the
 * paper's evaluation, as structured data plus a Markdown report.
 *
 * EXPERIMENTS.md in the repository root is the committed output of
 * rockbench (tools/rockbench.cc), which calls experiments_markdown().
 */
#pragma once

#include <string>
#include <vector>

#include "corpus/benchmarks.h"
#include "eval/application_distance.h"
#include "rock/pipeline.h"

namespace rock::experiments {

/** One measured Table-2 row next to the paper's numbers. */
struct Table2Row {
    corpus::BenchmarkSpec spec;
    int measured_types = 0;
    bool measured_resolvable = false;
    eval::AppDistance without_slm;
    eval::AppDistance with_slm;
};

/** Run all 19 benchmarks (the expensive part, ~20 s). */
std::vector<Table2Row> run_table2();

/** Results of the echoparams case study. */
struct EchoparamsCase {
    std::size_t structural_hierarchies = 0; ///< paper: 64
    eval::AppDistance without_slm;          ///< paper: 0 / 2.25
    eval::AppDistance with_slm;             ///< paper: 0 / 0
};

EchoparamsCase run_echoparams_case();

/** Results of the Fig. 9 splicing case study. */
struct SplicingCase {
    int gt_roots = 0;        ///< pairs appear as separate roots
    int spliced_pairs = 0;   ///< pairs rejoined by the reconstruction
    eval::AppDistance distance;
};

SplicingCase run_splicing_case();

/** One metric's total score in the "Other Metrics" ablation. */
struct MetricScore {
    std::string metric;
    double total_missing_plus_added = 0.0;
};

/** Run the metric ablation over the fast behavioral benchmarks. */
std::vector<MetricScore> run_metric_comparison();

/** One point of the scalability sweep. */
struct ScalePoint {
    int classes = 0;
    std::size_t functions = 0;
    long paths = 0;
    /** Analysis stage alone (== timing.analyze_ms). */
    double analyze_ms = 0.0;
    /** Worker threads the pipeline ran with. */
    int threads = 1;
    /** Full per-stage profile of the reconstruction. */
    core::StageTiming timing;
};

std::vector<ScalePoint> run_scalability();

/** One k of the CFI trade-off sweep (averaged over benchmarks). */
struct TradeoffPoint {
    int k = 0;
    double avg_missing = 0.0;
    double avg_added = 0.0;
};

std::vector<TradeoffPoint> run_cfi_tradeoff();

/**
 * DKL-only vs DKL+typeinf on the multiple-inheritance ablation corpus
 * (corpus::typeinf_ablation_program): folded noise methods make a
 * decoy sibling the statistically closest parent and the true
 * parent-ctor calls are inlined away, so the row isolates what the
 * fused subtyping facts contribute over the statistical objective.
 */
struct TypeinfAblation {
    int types = 0;                ///< binary types in the corpus
    std::size_t solved_facts = 0; ///< direct derives-from facts
    /** Chosen hierarchy, RockConfig::typeinf = false / true. */
    eval::AppDistance dkl_only;
    eval::AppDistance with_typeinf;
    /** Worst surviving co-optimal alternative, same two configs. */
    eval::AppDistance dkl_only_worst;
    eval::AppDistance with_typeinf_worst;
    /** Fused run repeated at 1 and all hardware threads produced
     *  bit-identical results (core::first_difference() empty). */
    bool thread_invariant = false;
};

TypeinfAblation run_typeinf_ablation();

/**
 * Run everything and render the full Markdown report
 * (paper-vs-measured for every table and figure).
 */
std::string experiments_markdown();

} // namespace rock::experiments
