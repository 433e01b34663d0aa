/**
 * @file
 * rockstat -- diff two metrics captures, or gate one bench capture
 * on speedup and memory thresholds.
 *
 * Diff mode accepts any format the repo emits:
 *  - canonical metrics reports ("rock-metrics-v1", from any tool's
 *    --metrics-json flag): deterministic counters compare exactly
 *    (tolerance configurable), per-name span wall totals compare with
 *    relative tolerance + absolute slack;
 *  - bench JSONL captures (bench/pipeline_scaling stdout, one JSON
 *    object per line): lines pair by bench/classes/threads, "*_ms"
 *    (wall time) and "*_mb" (memory high-water mark) fields gate on
 *    the timing tolerance, other numeric fields and booleans compare
 *    exactly (derived *_speedup ratios and hw_threads are
 *    host-dependent and skipped);
 *  - google-benchmark --benchmark_format=json output (micro_slm,
 *    micro_graph): converted on the fly to bench lines keyed by
 *    benchmark name, keeping only real_ms/cpu_ms so iteration counts
 *    never gate.
 *
 * Check mode gates a single bench JSONL capture:
 *
 *   rockstat --check RUN.json --min-speedup 4:2.5 [--min-speedup ...]
 *
 * For every --min-speedup T:R, each line with "threads" == T must
 * carry "speedup_vs_serial" >= R -- but only when the capturing
 * host's "hw_threads" >= T; lines from smaller machines are skipped
 * with a note so the gate binds on CI runners without failing
 * laptops. Any line with "identical_to_serial": false fails
 * unconditionally (determinism is not hardware-dependent).
 *
 * --min-warm-speedup R additionally gates the artifact-cache lines
 * emitted by `skype_scale --warm-runs`: every line with "warm": true
 * must carry "warm_speedup" >= R, "cache_hits" > 0 and
 * "identical_to_cold": true. Cold and warm share one process and one
 * thread count, so this gate is hardware-independent and never
 * skipped.
 *
 * --max-peak-rss-mb N fails every line whose "peak_rss_mb" (the
 * process's getrusage high-water mark when the line was written) is
 * above N MB, and every line that carries no such field. Unlike the
 * speedup gate it binds on any host.
 *
 * Serving gates (--max-p50-ms / --max-p95-ms / --min-hit-rate) point
 * --check at a canonical metrics report instead (rockd
 * --metrics-json): percentiles come from the
 * serve.request_latency_ms histogram -- the smallest bucket upper
 * bound whose cumulative count covers the quantile, infinity if the
 * quantile lands in the overflow bucket -- and the hit rate is
 * cache.hits / (cache.hits + cache.misses). Exit 2 when the report
 * has no latency histogram (or an empty one): a misconfigured
 * capture must not pass as a fast one.
 *
 * Usage:
 *   rockstat --baseline BASE.json CURRENT.json [options]
 *   rockstat BASE.json CURRENT.json [options]
 *   rockstat --check RUN.json --min-speedup T:R [--min-speedup T:R]
 *            [--min-warm-speedup R] [--max-peak-rss-mb N]
 *   rockstat --check METRICS.json [--max-p50-ms N] [--max-p95-ms N]
 *            [--min-hit-rate R]
 *
 * Options (diff mode):
 *   --counter-tol R     relative drift allowed per counter (default 0
 *                       = exact; counters are deterministic)
 *   --time-tol R        relative wall-time growth allowed (default
 *                       0.25, i.e. +25%)
 *   --abs-slack-ms S    absolute slack added to every timing bound
 *                       (default 5; absorbs micro-bench noise)
 *   --counters-only     skip all timing comparisons (cross-machine
 *                       counter gating)
 *
 * Exit status: 0 = within tolerances, 1 = regression(s)/gate
 * failure(s) printed to stderr, 2 = usage or I/O error.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"

namespace {

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A metrics report is one object carrying the schema tag; anything
 *  else JSON-ish is treated as bench JSONL. */
bool
is_metrics_report(const std::string& text)
{
    return text.find("\"rock-metrics-v1\"") != std::string::npos;
}

/** google-benchmark --benchmark_format=json: one object with a
 *  "context" header and a "benchmarks" array. */
bool
is_gbench_json(const std::string& text)
{
    return text.find("\"benchmarks\"") != std::string::npos &&
           text.find("\"context\"") != std::string::npos;
}

/**
 * Convert google-benchmark JSON to the bench-JSONL shape
 * diff_bench_lines pairs on: one line per benchmark entry, keyed by
 * name, carrying only the timing columns (in ms). Iteration counts
 * and aggregate statistics vary run to run and are dropped so the
 * exact-match rule for non-timing numerics never fires on them.
 */
std::string
gbench_to_bench_lines(const std::string& text)
{
    using rock::obs::Json;
    Json doc = Json::parse(text);
    const Json* benchmarks = doc.find("benchmarks");
    if (!benchmarks || !benchmarks->is_array())
        throw std::runtime_error(
            "google-benchmark JSON has no \"benchmarks\" array");
    std::string out;
    for (const Json& b : benchmarks->array) {
        const Json* name = b.find("name");
        const Json* real = b.find("real_time");
        if (!name || !name->is_string() || !real || !real->is_number())
            continue;
        const Json* unit = b.find("time_unit");
        double to_ms = 1e-6; // google-benchmark defaults to ns
        if (unit && unit->is_string()) {
            if (unit->string == "ns")
                to_ms = 1e-6;
            else if (unit->string == "us")
                to_ms = 1e-3;
            else if (unit->string == "ms")
                to_ms = 1.0;
            else if (unit->string == "s")
                to_ms = 1e3;
        }
        out += "{\"bench\":\"" + rock::obs::json_escape(name->string) +
               "\",\"real_ms\":" +
               rock::obs::json_number(real->number * to_ms);
        const Json* cpu = b.find("cpu_time");
        if (cpu && cpu->is_number())
            out += ",\"cpu_ms\":" +
                   rock::obs::json_number(cpu->number * to_ms);
        out += "}\n";
    }
    return out;
}

/** Serving-latency/hit-rate thresholds (--check on a metrics
 *  report). Zero/negative = gate disabled. */
struct ServeGates {
    double max_p50_ms = 0.0;
    double max_p95_ms = 0.0;
    double min_hit_rate = -1.0;
    bool any() const
    {
        return max_p50_ms > 0.0 || max_p95_ms > 0.0 ||
               min_hit_rate >= 0.0;
    }
};

/**
 * Quantile @p q of a histogram snapshot: the upper bound of the
 * first bucket at which the cumulative count reaches q * total.
 * Overflow bucket = infinity (no finite bound covers the quantile,
 * so any finite --max-*-ms gate fails -- by design).
 */
double
histogram_quantile(const rock::obs::HistogramSnapshot& h, double q)
{
    double target = q * static_cast<double>(h.count);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        cumulative += static_cast<double>(h.counts[i]);
        if (cumulative >= target)
            return h.bounds[i];
    }
    return std::numeric_limits<double>::infinity();
}

/**
 * Gate a canonical metrics report on serving thresholds. Returns the
 * process exit code directly: 0 pass, 1 gate breach, 2 when the
 * report carries no usable serve.request_latency_ms histogram.
 */
int
run_serve_check(const std::string& path, const ServeGates& gates)
{
    using rock::obs::MetricsReport;
    std::string text = slurp(path);
    if (!is_metrics_report(text)) {
        std::fprintf(stderr,
                     "rockstat: %s is not a rock-metrics-v1 report "
                     "(serving gates need rockd --metrics-json "
                     "output)\n",
                     path.c_str());
        return 2;
    }
    MetricsReport report = MetricsReport::from_json(text);

    auto hist = report.histograms.find("serve.request_latency_ms");
    if (hist == report.histograms.end() ||
        hist->second.count == 0) {
        std::fprintf(stderr,
                     "rockstat: %s: no serve.request_latency_ms "
                     "samples -- the daemon served no requests, or "
                     "this is not a rockd capture\n",
                     path.c_str());
        return 2;
    }

    int failures = 0;
    double p50 = histogram_quantile(hist->second, 0.50);
    double p95 = histogram_quantile(hist->second, 0.95);
    if (gates.max_p50_ms > 0.0 && !(p50 <= gates.max_p50_ms)) {
        std::fprintf(stderr,
                     "rockstat: FAIL %s: p50 latency %.1f ms, need "
                     "<= %.1f ms\n",
                     path.c_str(), p50, gates.max_p50_ms);
        ++failures;
    }
    if (gates.max_p95_ms > 0.0 && !(p95 <= gates.max_p95_ms)) {
        std::fprintf(stderr,
                     "rockstat: FAIL %s: p95 latency %.1f ms, need "
                     "<= %.1f ms\n",
                     path.c_str(), p95, gates.max_p95_ms);
        ++failures;
    }

    auto counter = [&](const char* name) -> double {
        auto it = report.counters.find(name);
        return it == report.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    double hits = counter("cache.hits");
    double misses = counter("cache.misses");
    double rate =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    if (gates.min_hit_rate >= 0.0 && rate < gates.min_hit_rate) {
        std::fprintf(stderr,
                     "rockstat: FAIL %s: cache hit rate %.3f "
                     "(%.0f hits / %.0f lookups), need >= %.3f\n",
                     path.c_str(), rate, hits, hits + misses,
                     gates.min_hit_rate);
        ++failures;
    }

    std::printf("rockstat: serve check %s: %llu request(s), p50 "
                "%.1f ms, p95 %.1f ms, hit rate %.3f, "
                "%d failure(s)\n",
                path.c_str(),
                static_cast<unsigned long long>(hist->second.count),
                p50, p95, rate, failures);
    return failures == 0 ? 0 : 1;
}

/** One --min-speedup T:R requirement. */
struct SpeedupGate {
    int threads = 0;
    double min_ratio = 0.0;
};

bool
parse_gate(const std::string& spec, SpeedupGate* gate)
{
    std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size())
        return false;
    gate->threads = std::atoi(spec.substr(0, colon).c_str());
    gate->min_ratio = std::atof(spec.substr(colon + 1).c_str());
    return gate->threads > 0 && gate->min_ratio > 0.0;
}

/**
 * Gate a bench JSONL capture on speedup thresholds; returns the
 * number of failures (0 = pass). Hardware-aware: a threshold at T
 * threads only applies to lines captured on hosts with hw_threads
 * >= T. Lines without hw_threads (older captures) are gated
 * unconditionally.
 */
int
run_check(const std::string& path,
          const std::vector<SpeedupGate>& gates,
          double min_warm_speedup, double max_peak_rss_mb)
{
    using rock::obs::Json;
    std::string text = slurp(path);
    if (is_metrics_report(text) || is_gbench_json(text))
        throw std::runtime_error(
            "--check expects bench JSONL (one object per line) "
            "with threads/speedup_vs_serial fields");

    struct BenchLine {
        Json value;
        int lineno = 0;
    };
    std::vector<BenchLine> lines;
    std::istringstream stream(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(stream, raw)) {
        ++lineno;
        if (raw.find('{') == std::string::npos)
            continue;
        lines.push_back({Json::parse(raw), lineno});
    }

    int failures = 0;
    int checked = 0;
    int skipped = 0;

    // Determinism is not hardware-dependent: a false flag fails on
    // any machine, independent of the speedup thresholds.
    for (const BenchLine& l : lines) {
        const Json* identical = l.value.find("identical_to_serial");
        if (identical && identical->kind == Json::Kind::Bool &&
            !identical->boolean) {
            std::fprintf(stderr,
                         "rockstat: FAIL %s:%d: "
                         "identical_to_serial is false\n",
                         path.c_str(), l.lineno);
            ++failures;
        }
    }

    for (const SpeedupGate& gate : gates) {
        bool found = false;
        for (const BenchLine& l : lines) {
            const Json* threads = l.value.find("threads");
            if (!threads || !threads->is_number() ||
                static_cast<int>(threads->number) != gate.threads)
                continue;
            found = true;
            const Json* hw = l.value.find("hw_threads");
            if (hw && hw->is_number() &&
                hw->number < gate.threads) {
                std::fprintf(stderr,
                             "rockstat: skip %s:%d: host has %.0f "
                             "hw threads < %d, speedup gate not "
                             "applicable\n",
                             path.c_str(), l.lineno, hw->number,
                             gate.threads);
                ++skipped;
                continue;
            }
            const Json* speedup = l.value.find("speedup_vs_serial");
            if (!speedup || !speedup->is_number()) {
                std::fprintf(stderr,
                             "rockstat: FAIL %s:%d: no "
                             "speedup_vs_serial field\n",
                             path.c_str(), l.lineno);
                ++failures;
                continue;
            }
            ++checked;
            if (speedup->number < gate.min_ratio) {
                std::fprintf(stderr,
                             "rockstat: FAIL %s:%d: speedup %.3f at "
                             "%d threads, need >= %.3f\n",
                             path.c_str(), l.lineno, speedup->number,
                             gate.threads, gate.min_ratio);
                ++failures;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "rockstat: FAIL %s: no line with "
                         "threads == %d for --min-speedup %d:%.3f\n",
                         path.c_str(), gate.threads, gate.threads,
                         gate.min_ratio);
            ++failures;
        }
    }

    // --min-warm-speedup R: every warm line ("warm": true) must show
    // warm_speedup >= R, at least one artifact-cache hit, and a
    // bit-identical hierarchy. Cold and warm runs share one process
    // and one thread count, so unlike the parallel gates this one is
    // hardware-independent and never skipped.
    if (min_warm_speedup > 0.0) {
        int warm_lines = 0;
        for (const BenchLine& l : lines) {
            const Json* warm = l.value.find("warm");
            if (!warm || warm->kind != Json::Kind::Bool ||
                !warm->boolean)
                continue;
            ++warm_lines;
            ++checked;
            const Json* speedup = l.value.find("warm_speedup");
            if (!speedup || !speedup->is_number() ||
                speedup->number < min_warm_speedup) {
                std::fprintf(stderr,
                             "rockstat: FAIL %s:%d: warm speedup "
                             "%.3f, need >= %.3f\n",
                             path.c_str(), l.lineno,
                             speedup && speedup->is_number()
                                 ? speedup->number
                                 : 0.0,
                             min_warm_speedup);
                ++failures;
            }
            const Json* hits = l.value.find("cache_hits");
            if (!hits || !hits->is_number() || hits->number <= 0.0) {
                std::fprintf(stderr,
                             "rockstat: FAIL %s:%d: warm run "
                             "reported no cache hits\n",
                             path.c_str(), l.lineno);
                ++failures;
            }
            const Json* identical = l.value.find("identical_to_cold");
            if (!identical ||
                identical->kind != Json::Kind::Bool ||
                !identical->boolean) {
                std::fprintf(stderr,
                             "rockstat: FAIL %s:%d: warm hierarchy "
                             "not bit-identical to cold\n",
                             path.c_str(), l.lineno);
                ++failures;
            }
        }
        if (warm_lines == 0) {
            std::fprintf(stderr,
                         "rockstat: FAIL %s: no warm lines for "
                         "--min-warm-speedup %.3f\n",
                         path.c_str(), min_warm_speedup);
            ++failures;
        }
    }

    if (max_peak_rss_mb > 0.0) {
        for (const rock::obs::Regression& r :
             rock::obs::peak_rss_violations(text, max_peak_rss_mb)) {
            std::fprintf(stderr,
                         "rockstat: FAIL %s: %s: %.1f MB, need <= "
                         "%.1f MB (%s)\n",
                         path.c_str(), r.metric.c_str(), r.current,
                         r.baseline, r.detail.c_str());
            ++failures;
        }
        checked += static_cast<int>(lines.size());
    }

    std::printf("rockstat: check %s: %d gate(s) checked, %d skipped "
                "(insufficient hw threads), %d failure(s)\n",
                path.c_str(), checked, skipped, failures);
    return failures;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace rock::obs;

    std::vector<std::string> files;
    std::string check_path;
    std::vector<SpeedupGate> gates;
    double min_warm_speedup = 0.0;
    double max_peak_rss_mb = 0.0;
    ServeGates serve_gates;
    DiffOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--baseline" && i + 1 < argc) {
            files.insert(files.begin(), argv[++i]);
        } else if (arg == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (arg == "--min-speedup" && i + 1 < argc) {
            SpeedupGate gate;
            if (!parse_gate(argv[++i], &gate)) {
                std::fprintf(stderr,
                             "rockstat: bad --min-speedup '%s' "
                             "(want THREADS:RATIO, e.g. 4:2.5)\n",
                             argv[i]);
                return 2;
            }
            gates.push_back(gate);
        } else if (arg == "--min-warm-speedup" && i + 1 < argc) {
            min_warm_speedup = std::atof(argv[++i]);
            if (min_warm_speedup <= 0.0) {
                std::fprintf(stderr,
                             "rockstat: bad --min-warm-speedup '%s' "
                             "(want a positive ratio, e.g. 5)\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--max-peak-rss-mb" && i + 1 < argc) {
            max_peak_rss_mb = std::atof(argv[++i]);
            if (max_peak_rss_mb <= 0.0) {
                std::fprintf(stderr,
                             "rockstat: bad --max-peak-rss-mb '%s' "
                             "(want a positive MB bound, e.g. 1024)\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--max-p50-ms" && i + 1 < argc) {
            serve_gates.max_p50_ms = std::atof(argv[++i]);
        } else if (arg == "--max-p95-ms" && i + 1 < argc) {
            serve_gates.max_p95_ms = std::atof(argv[++i]);
        } else if (arg == "--min-hit-rate" && i + 1 < argc) {
            serve_gates.min_hit_rate = std::atof(argv[++i]);
        } else if (arg == "--counter-tol" && i + 1 < argc) {
            options.counter_rel_tol = std::atof(argv[++i]);
        } else if (arg == "--time-tol" && i + 1 < argc) {
            options.time_rel_tol = std::atof(argv[++i]);
        } else if (arg == "--abs-slack-ms" && i + 1 < argc) {
            options.time_abs_slack_ms = std::atof(argv[++i]);
        } else if (arg == "--counters-only") {
            options.counters_only = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "rockstat: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (!check_path.empty()) {
        if (serve_gates.any()) {
            if (!files.empty() || !gates.empty() ||
                min_warm_speedup > 0.0 || max_peak_rss_mb > 0.0) {
                std::fprintf(
                    stderr,
                    "usage: rockstat --check METRICS.json "
                    "[--max-p50-ms N] [--max-p95-ms N] "
                    "[--min-hit-rate R] (serving gates do not mix "
                    "with bench gates)\n");
                return 2;
            }
            try {
                return run_serve_check(check_path, serve_gates);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "rockstat: error: %s\n",
                             e.what());
                return 2;
            }
        }
        if (!files.empty() || (gates.empty() && min_warm_speedup <= 0.0 &&
                               max_peak_rss_mb <= 0.0)) {
            std::fprintf(stderr,
                         "usage: rockstat --check RUN.json "
                         "[--min-speedup THREADS:RATIO ...] "
                         "[--min-warm-speedup RATIO] "
                         "[--max-peak-rss-mb MB]\n");
            return 2;
        }
        try {
            return run_check(check_path, gates, min_warm_speedup,
                             max_peak_rss_mb) == 0
                       ? 0
                       : 1;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "rockstat: error: %s\n", e.what());
            return 2;
        }
    }

    if (files.size() != 2 || !gates.empty() ||
        min_warm_speedup > 0.0 || max_peak_rss_mb > 0.0 ||
        serve_gates.any()) {
        std::fprintf(
            stderr,
            "usage: rockstat [--baseline] BASE.json CURRENT.json "
            "[--counter-tol R] [--time-tol R] [--abs-slack-ms S] "
            "[--counters-only]\n"
            "       rockstat --check RUN.json [--min-speedup T:R ...] "
            "[--min-warm-speedup R] [--max-peak-rss-mb MB]\n");
        return 2;
    }

    try {
        std::string base_text = slurp(files[0]);
        std::string cur_text = slurp(files[1]);
        if (is_gbench_json(base_text))
            base_text = gbench_to_bench_lines(base_text);
        if (is_gbench_json(cur_text))
            cur_text = gbench_to_bench_lines(cur_text);
        bool base_report = is_metrics_report(base_text);
        bool cur_report = is_metrics_report(cur_text);
        if (base_report != cur_report) {
            std::fprintf(stderr,
                         "rockstat: '%s' and '%s' are different "
                         "formats (metrics report vs bench JSONL)\n",
                         files[0].c_str(), files[1].c_str());
            return 2;
        }

        std::vector<Regression> regressions;
        if (base_report) {
            regressions = diff_reports(
                MetricsReport::from_json(base_text),
                MetricsReport::from_json(cur_text), options);
        } else {
            regressions =
                diff_bench_lines(base_text, cur_text, options);
        }

        for (const Regression& r : regressions) {
            std::fprintf(stderr,
                         "rockstat: REGRESSION %s: baseline %.6g -> "
                         "current %.6g (%s)\n",
                         r.metric.c_str(), r.baseline, r.current,
                         r.detail.c_str());
        }
        std::printf("rockstat: %s vs %s: %zu regression(s) "
                    "[counter-tol %.3g, time-tol %.3g, slack %.3g "
                    "ms%s]\n",
                    files[0].c_str(), files[1].c_str(),
                    regressions.size(), options.counter_rel_tol,
                    options.time_rel_tol, options.time_abs_slack_ms,
                    options.counters_only ? ", counters only" : "");
        return regressions.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rockstat: error: %s\n", e.what());
        return 2;
    }
}
