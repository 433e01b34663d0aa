/**
 * @file
 * What one benchmark run prints: named metrics with units, the
 * attempted/failed operation counts, and the statistics behind them.
 *
 * The last line of standard output is one JSON object,
 *
 *   {"correct": true, "attempted": N, "failed": F,
 *    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
 *
 * preceded by one human-readable line per metric ("name = value unit
 * (note)"). Values are printed with every digit they were measured
 * with (shortest round-trip form).
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Human-readable detail, e.g. "p93.75, 10 of 160 samples beyond". */
    std::string note;
};

/** Everything one run reports. */
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** The first few failure descriptions (stderr only). */
    std::vector<std::string> failures;

    /** Every attempted operation passed its checks. */
    bool correct() const { return attempted > 0 && failed == 0; }

    void add(std::string name, double value, std::string unit,
             std::string note = {});
    /** The metric named @p name, or nullptr. */
    const Metric* find(const std::string& name) const;
    /** Count one failed operation, keeping its description. */
    void fail(const std::string& why);
};

/** Median of @p samples (mean of the middle two for even sizes);
 *  0 for an empty set. */
double median(std::vector<double> samples);

/** Samples a tail percentile must leave beyond it. */
constexpr std::size_t kTailMinBeyond = 10;

/** Outcome of latency_tail(). */
struct Tail {
    /** A percentile at or above p50 with kTailMinBeyond samples
     *  beyond it exists; when false the other fields are zero. */
    bool found = false;
    double pct = 0.0;
    double value = 0.0;
    /** Samples ranked beyond the percentile. */
    std::size_t beyond = 0;
};

/**
 * The highest percentile that leaves kTailMinBeyond samples beyond
 * it -- the eleventh-largest sample, p93.75 of 160 -- so a reported
 * tail always rests on ten observations. Below 20 samples that
 * percentile would fall under the median, and none is given.
 */
Tail latency_tail(std::vector<double> samples);

/** Shortest decimal form of @p v that parses back to the same double. */
std::string format_number(double v);

/** The final JSON line (no trailing newline). */
std::string json_line(const Report& report);

/** Print the per-metric lines and failures, then the JSON line last. */
void print_report(const Report& report, std::FILE* out,
                  std::FILE* diagnostics);

} // namespace perfbench
