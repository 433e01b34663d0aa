/**
 * @file
 * The paper's large-binary anecdote: "We also successfully analyzed
 * the binary of Skype (of size 21.6 Mb), but we do not report these
 * results as we had no groundtruth to compare against."
 *
 * Analogue: a large generated program (default 5000 classes across
 * many trees, with fold noise and multiple inheritance) is compiled,
 * stripped, and pushed through the complete pipeline. Success is
 * completing with a hierarchy covering every discovered type.
 *
 * Doubles as the near-linear-speedup gate: with --threads a,b,...
 * the same image is reconstructed at each worker count and one JSON
 * line per run goes to --json FILE (or stdout), carrying total and
 * per-stage wall times, speedup_vs_serial against the sweep's
 * threads=1 run, hw_threads, and "identical_to_serial": the run's
 * core::first_difference() against that threads=1 result is empty
 * (the whole determinism contract, not just the forest). CI feeds
 * the file to `rockstat --check --min-speedup T:R`, which enforces
 * the ratio only on hosts with >= T hardware threads.
 *
 * Usage:
 *   skype_scale [--classes N] [--threads CSV] [--json FILE]
 *               [--metrics-json FILE] [--warm-runs N]
 *               [--cache-dir DIR]
 *
 * Default is a single all-hardware-threads run (the historical
 * behavior); --threads "1,4" runs the gate pair. On a 4-core x86 host
 * (Release build) the 5000-class default takes about 11 s and peaks
 * near 360 MB at --threads 1, 4 s and about 410 MB at --threads 4;
 * 2000 classes peak near 80 MB. CI runs 2000 classes for the
 * speedup and warm-cache gates and 5000 classes at 4 threads for the
 * memory gate (`rockstat --check --max-peak-rss-mb 1024`).
 *
 * Every JSON line carries "peak_rss_mb": the process's getrusage
 * ru_maxrss when the line was written. It is a high-water mark over
 * the whole process -- generation, compilation and every earlier
 * run of the sweep included -- so it never falls from one line to
 * the next; a run's own footprint shows only when it sets a new peak.
 *
 * --warm-runs N appends an artifact-cache phase: one cold
 * reconstruction populating a content-addressed cache
 * (cache/artifact_cache.h; in-memory unless --cache-dir is given),
 * then N warm reconstructions of the same image in the same process.
 * Each run emits a JSON line with "warm", "warm_speedup" (cold total
 * over this run's total), "cache_hits" and "identical_to_cold"
 * (first_difference() against the cold result is empty); CI
 * gates the file with `rockstat --check --min-warm-speedup R`, which
 * is hardware-independent (cold and warm share one process and one
 * thread count).
 *
 * When the sweep requests more threads than the host has, a loud
 * warning is printed and every JSON line carries
 * "underprovisioned": true so `rockstat` bench diffs know the
 * timings are untrustworthy (the diff skips the flag itself).
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "cache/artifact_cache.h"
#include "corpus/generator.h"
#include "obs/report.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

std::vector<int>
parse_threads(const std::string& csv)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        out.push_back(std::atoi(csv.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
    }
    return out;
}

/** The process's peak resident set so far, in MB (getrusage
 *  ru_maxrss, which Linux reports in KB). */
double
peak_rss_mb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace rock;
    using clock = std::chrono::steady_clock;
    auto ms_since = [](clock::time_point start) {
        return std::chrono::duration<double, std::milli>(
                   clock::now() - start)
            .count();
    };

    int classes = 5000;
    std::vector<int> thread_counts{0}; // 0 = all hardware threads
    std::string json_path;
    std::string metrics_path;
    int warm_runs = 0;
    std::string cache_dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--classes" && i + 1 < argc) {
            classes = std::atoi(argv[++i]);
        } else if (arg == "--threads" && i + 1 < argc) {
            thread_counts = parse_threads(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--warm-runs" && i + 1 < argc) {
            warm_runs = std::atoi(argv[++i]);
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: skype_scale [--classes N] "
                         "[--threads CSV] [--json FILE] "
                         "[--metrics-json FILE] [--warm-runs N] "
                         "[--cache-dir DIR]\n");
            return 2;
        }
    }
    if (thread_counts.empty() || classes <= 0) {
        std::fprintf(stderr, "skype_scale: bad --classes/--threads\n");
        return 2;
    }

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    unsigned max_requested = 1;
    for (int t : thread_counts)
        max_requested = std::max(
            max_requested, t == 0 ? hw : static_cast<unsigned>(t));
    const bool underprovisioned = max_requested > hw;
    if (underprovisioned) {
        std::fprintf(stderr,
                     "WARNING: sweep requests %u threads but the "
                     "host has only %u hardware threads -- parallel "
                     "timings will not reflect real scaling "
                     "(JSON lines carry \"underprovisioned\": "
                     "true)\n",
                     max_requested, hw);
    }

    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = std::max(4, classes / 40);
    spec.max_depth = 6;
    spec.max_children = 5;
    spec.scenarios_per_class = 2;
    spec.fold_noise_pairs = classes / 100;
    spec.mi_prob = 0.05;
    spec.seed = 2018;

    auto t0 = clock::now();
    toyc::Program prog = corpus::generate_program(spec);
    toyc::CompileResult compiled = toyc::compile(prog);
    double compile_ms = ms_since(t0);

    std::printf("large-binary run (Skype analogue)\n");
    std::printf("  classes: %d, functions: %zu, code: %.1f KB, "
                "data: %.1f KB, hw threads: %u\n",
                spec.num_classes, compiled.image.functions.size(),
                compiled.image.code.size() / 1024.0,
                compiled.image.data.size() / 1024.0, hw);
    std::printf("  compile+link: %.1f ms (%zu functions folded)\n",
                compile_ms, compiled.folded);

    std::FILE* json = nullptr;
    if (!json_path.empty()) {
        json = std::fopen(json_path.c_str(), "w");
        if (!json) {
            std::fprintf(stderr, "skype_scale: cannot open %s\n",
                         json_path.c_str());
            return 2;
        }
    }

    bool covered = true;
    bool all_identical = true;
    double serial_ms = 0.0;
    std::optional<core::ReconstructionResult> serial;
    for (int threads : thread_counts) {
        core::RockConfig config;
        config.threads = threads;
        t0 = clock::now();
        core::ReconstructionResult result =
            core::reconstruct(compiled.image, config);
        double reconstruct_ms = ms_since(t0);
        const core::StageTiming& t = result.timing;

        std::string diff =
            serial ? core::first_difference(*serial, result) : "";
        if (!diff.empty())
            std::fprintf(stderr, "threads=%d: %s differs from serial\n",
                         threads, diff.c_str());
        const bool identical = diff.empty();
        all_identical = all_identical && identical;

        std::printf("  reconstruct[threads=%d]: %.1f ms "
                    "(cfg %.1f, verify %.1f, analyze %.1f, "
                    "structural %.1f, typeinf %.1f, train %.1f, "
                    "distances %.1f, arborescence %.1f)\n",
                    threads, reconstruct_ms, t.cfg_ms, t.verify_ms,
                    t.analyze_ms, t.structural_ms, t.typeinf_ms,
                    t.train_ms, t.distances_ms, t.arborescence_ms);
        std::printf("  types: %zu, families: %d (%d behaviorally "
                    "resolved), forced parents: %zu, paths: %ld, "
                    "distances: %zu\n",
                    result.structural.types.size(),
                    result.structural.num_families(),
                    result.ambiguous_families,
                    result.structural.forced_parents.size(),
                    result.analysis.total_paths,
                    result.distances.size());

        covered = covered &&
                  result.hierarchy.size() ==
                      static_cast<int>(result.structural.types.size());

        char line[1024];
        std::snprintf(
            line, sizeof(line),
            "{\"bench\":\"skype_scale\",\"classes\":%d,"
            "\"functions\":%zu,\"types\":%zu,\"threads\":%d,"
            "\"hw_threads\":%u,"
            "\"cfg_ms\":%.3f,\"verify_ms\":%.3f,\"analyze_ms\":%.3f,"
            "\"structural_ms\":%.3f,\"typeinf_ms\":%.3f,"
            "\"train_ms\":%.3f,"
            "\"distances_ms\":%.3f,\"arborescence_ms\":%.3f,"
            "\"total_ms\":%.3f,\"speedup_vs_serial\":%.3f,"
            "\"peak_rss_mb\":%.1f,"
            "\"identical_to_serial\":%s,"
            "\"underprovisioned\":%s}\n",
            classes, compiled.image.functions.size(),
            result.structural.types.size(), threads, hw, t.cfg_ms,
            t.verify_ms, t.analyze_ms, t.structural_ms, t.typeinf_ms,
            t.train_ms, t.distances_ms, t.arborescence_ms, t.total_ms,
            serial_ms > 0.0 && t.total_ms > 0.0
                ? serial_ms / t.total_ms
                : 1.0,
            peak_rss_mb(), identical ? "true" : "false",
            underprovisioned ? "true" : "false");
        if (json)
            std::fputs(line, json);
        else
            std::fputs(line, stdout);
        std::fflush(stdout);
        if (threads == 1 && !serial) {
            serial_ms = t.total_ms;
            serial = std::move(result);
        }
    }
    serial.reset(); // the warm phase keeps its own reference alive
    bool warm_identical = true;
    if (warm_runs > 0) {
        cache::CacheOptions opts;
        opts.dir = cache_dir;
        auto store = std::make_shared<cache::ArtifactCache>(opts);

        std::printf("\nwarm-cache phase: 1 cold + %d warm run%s%s\n",
                    warm_runs, warm_runs == 1 ? "" : "s",
                    cache_dir.empty() ? " (memory tier only)" : "");

        double cold_ms = 0.0;
        std::optional<core::ReconstructionResult> cold;
        for (int run = 0; run <= warm_runs; ++run) {
            core::RockConfig config;
            config.threads = 1;
            config.cache = store;
            std::uint64_t hits_before = store->stats().hits;
            t0 = clock::now();
            core::ReconstructionResult result =
                core::reconstruct(compiled.image, config);
            double run_ms = ms_since(t0);
            std::uint64_t run_hits = store->stats().hits - hits_before;
            const core::StageTiming& t = result.timing;

            const bool warm = run > 0;
            if (!warm)
                cold_ms = t.total_ms;
            std::string diff =
                warm ? core::first_difference(*cold, result) : "";
            const bool identical = diff.empty();
            warm_identical = warm_identical && identical;
            covered = covered &&
                      result.hierarchy.size() ==
                          static_cast<int>(
                              result.structural.types.size());

            std::printf(
                "  %s[run=%d]: %.1f ms "
                "(cfg %.1f, verify %.1f, analyze %.1f, "
                "structural %.1f, typeinf %.1f, train %.1f, "
                "distances %.1f, arborescence %.1f), "
                "cache hits: %llu%s\n",
                warm ? "warm" : "cold", run, run_ms, t.cfg_ms,
                t.verify_ms, t.analyze_ms, t.structural_ms,
                t.typeinf_ms, t.train_ms, t.distances_ms,
                t.arborescence_ms,
                static_cast<unsigned long long>(run_hits),
                identical ? ""
                          : (" [MISMATCH: " + diff + " differs]").c_str());

            char line[1024];
            std::snprintf(
                line, sizeof(line),
                "{\"bench\":\"skype_scale\",\"classes\":%d,"
                "\"functions\":%zu,\"types\":%zu,\"threads\":1,"
                "\"hw_threads\":%u,\"run\":%d,\"warm\":%s,"
                "\"cold_ms\":%.3f,"
                "\"cfg_ms\":%.3f,\"verify_ms\":%.3f,"
                "\"analyze_ms\":%.3f,"
                "\"structural_ms\":%.3f,\"typeinf_ms\":%.3f,"
                "\"train_ms\":%.3f,"
                "\"distances_ms\":%.3f,\"arborescence_ms\":%.3f,"
                "\"total_ms\":%.3f,\"warm_speedup\":%.3f,"
                "\"peak_rss_mb\":%.1f,"
                "\"cache_hits\":%llu,\"identical_to_cold\":%s,"
                "\"underprovisioned\":%s}\n",
                classes, compiled.image.functions.size(),
                result.structural.types.size(), hw, run,
                warm ? "true" : "false", cold_ms, t.cfg_ms,
                t.verify_ms, t.analyze_ms, t.structural_ms,
                t.typeinf_ms, t.train_ms, t.distances_ms,
                t.arborescence_ms, t.total_ms,
                warm && cold_ms > 0.0 && t.total_ms > 0.0
                    ? cold_ms / t.total_ms
                    : 1.0,
                peak_rss_mb(), static_cast<unsigned long long>(run_hits),
                identical ? "true" : "false",
                underprovisioned ? "true" : "false");
            if (json)
                std::fputs(line, json);
            else
                std::fputs(line, stdout);
            std::fflush(stdout);
            if (!warm)
                cold = std::move(result);
        }
    }
    if (json)
        std::fclose(json);

    if (!metrics_path.empty()) {
        try {
            obs::write_report_file(obs::MetricsReport::capture(),
                                   metrics_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "skype_scale: %s\n", e.what());
            return 2;
        }
    }
    if (!all_identical) {
        std::fprintf(stderr, "MISMATCH: parallel result differs "
                             "from serial baseline\n");
        return 1;
    }
    if (!warm_identical) {
        std::fprintf(stderr, "MISMATCH: warm-cache result differs "
                             "from cold baseline\n");
        return 1;
    }
    std::printf("\n%s\n",
                covered ? "OK: full pipeline completed on the "
                          "large binary"
                        : "MISMATCH: hierarchy does not cover all "
                          "types");
    return covered ? 0 : 1;
}
