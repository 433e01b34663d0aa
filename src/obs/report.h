/**
 * @file
 * MetricsReport: one canonical, machine-readable snapshot of the
 * metrics registry + span log, and the regression-diff logic that
 * tools/rockstat exposes on the command line.
 *
 * The JSON schema ("rock-metrics-v1") segregates determinism classes
 * at the top level -- the *whole point* of the layout:
 *
 *   {
 *     "schema": "rock-metrics-v1",
 *     "deterministic": {            // bit-identical across thread
 *       "counters": {"name": N}     // counts; CI diffs these exactly
 *     },
 *     "timing": {                   // wall/CPU time; machine- and
 *       "gauges":     {"name": X},  // schedule-dependent; CI diffs
 *       "histograms": {"name":      // with relative tolerance
 *           {"bounds": [..], "counts": [..], "count": N, "sum": X}},
 *       "spans": [{"id","parent","name","start_ms","wall_ms",
 *                  "cpu_ms","thread"}]
 *     }
 *   }
 *
 * Counter keys sort lexicographically and numbers render in shortest
 * round-trip form, so two reports of the same run are byte-identical.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rock::obs {

/** Immutable view of one histogram for reports. */
struct HistogramSnapshot {
    std::vector<double> bounds;
    /** bounds.size() + 1 entries, overflow last. */
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;

    bool operator==(const HistogramSnapshot&) const = default;

    /**
     * Quantile @p q: the upper bound of the first bucket at which the
     * cumulative count reaches q * count; infinity when it lands in
     * the overflow bucket (no finite bound covers it).
     */
    double quantile(double q) const;
};

/** Snapshot of everything observable. */
struct MetricsReport {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    std::vector<SpanRecord> spans;

    bool operator==(const MetricsReport&) const = default;

    /** Snapshot @p registry (default: the global one) + span log,
     *  plus the process gauges `process.peak_rss_mb`,
     *  `process.rss_mb`, `process.voluntary_ctx_switches` and
     *  `process.involuntary_ctx_switches`. */
    static MetricsReport
    capture(const Registry& registry = Registry::global());

    /** Canonical pretty-printed JSON (schema above). */
    std::string to_json() const;

    /**
     * Parse a report serialized by to_json().
     * @throws std::runtime_error on malformed input or wrong schema.
     */
    static MetricsReport from_json(const std::string& json);

    /** Total wall_ms per span name (regression-gate granularity). */
    std::map<std::string, double> span_totals() const;
};

/** The process's peak resident set so far, in MB (getrusage
 *  ru_maxrss, which Linux reports in KB). */
double peak_rss_mb();

/** The process's resident set now, in MB (/proc/self/statm); 0 when
 *  it cannot be read. */
double current_rss_mb();

/** Write @p report's JSON to @p path (std::runtime_error on I/O). */
void write_report_file(const MetricsReport& report,
                       const std::string& path);

// ---- regression diffing (the rockstat core) --------------------------

/** Tolerances for diff_reports()/diff_bench_lines(). */
struct DiffOptions {
    /**
     * Allowed relative drift per deterministic counter. 0 (default)
     * = exact match required: counters are bit-identical for a given
     * workload, so *any* drift is a behavior change.
     */
    double counter_rel_tol = 0.0;
    /** Allowed relative wall-time growth (regressions only; getting
     *  faster never fails). */
    double time_rel_tol = 0.25;
    /** Absolute slack added on top of the relative bound -- keeps
     *  micro-benchmarks (a few ms) from flapping on scheduler
     *  noise. */
    double time_abs_slack_ms = 5.0;
    /** Skip all timing comparisons (cross-machine counter gating). */
    bool counters_only = false;
};

/** One detected regression. */
struct Regression {
    /** Metric/field name, qualified ("counter:slm.escapes",
     *  "span:pipeline.analyze", "bench[classes=40,threads=2]:
     *  total_ms"). */
    std::string metric;
    double baseline = 0.0;
    double current = 0.0;
    std::string detail;
};

/**
 * Compare @p current against @p baseline:
 *  - counters present in both: |cur - base| must be within
 *    counter_rel_tol * base (tol 0 -> exact);
 *  - counters missing on either side are reported (a metric
 *    disappearing is itself a regression signal);
 *  - per-name span wall totals: cur <= base * (1 + time_rel_tol)
 *    + time_abs_slack_ms;
 *  - gauges and histograms are informational only (never gate).
 */
std::vector<Regression> diff_reports(const MetricsReport& baseline,
                                     const MetricsReport& current,
                                     const DiffOptions& options = {});

/**
 * Compare two bench JSONL captures (bench/pipeline_scaling output):
 * lines pair up by their non-numeric + integer identity fields
 * ("bench", "classes", "threads", ...); numeric "*_ms" (wall time)
 * and "*_mb" (memory high-water mark) fields gate with the timing
 * tolerance, other numeric fields and booleans must match exactly,
 * and "speedup_vs_serial" is ignored (derived). Unpaired lines are
 * reported.
 */
std::vector<Regression>
diff_bench_lines(const std::string& baseline_jsonl,
                 const std::string& current_jsonl,
                 const DiffOptions& options = {});

/**
 * Lines of a bench JSONL capture whose "peak_rss_mb" is above
 * @p max_mb, plus every line that carries no such field: a capture
 * that cannot show its memory must not pass as a small one.
 */
std::vector<Regression> peak_rss_violations(const std::string& jsonl,
                                            double max_mb);

} // namespace rock::obs
