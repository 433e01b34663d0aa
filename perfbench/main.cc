/**
 * @file
 * rockperf: the Rock benchmark program.
 *
 *   rockperf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--run-dir DIR]
 *
 * NAME is scale_cold, corpus_cold, cache_warm or serve_mixed. The
 * last line of standard output is the run's JSON result; --trace 1
 * reports per-layer metrics instead of end-to-end ones and writes the
 * span log to DIR/spans-NAME-SEED.json. DIR (default ".") also holds
 * the daemon socket of serve_mixed.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: rockperf --workload "
                 "scale_cold|corpus_cold|cache_warm|serve_mixed "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--run-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!(options.seconds > 0.0))
                return usage();
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            options.trace = value == "1";
        } else if (arg == "--run-dir") {
            options.run_dir = value;
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    bool known = false;
    for (const std::string& name : perfbench::workload_names())
        known = known || name == options.workload;
    if (!known)
        return usage();
    if (options.trace)
        options.span_log = options.run_dir + "/spans-" +
                           options.workload + "-" +
                           std::to_string(options.seed) + ".json";

    try {
        const perfbench::Report report = perfbench::run_workload(options);
        perfbench::print_report(report, stdout, stderr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rockperf: %s\n", e.what());
        return 1;
    }
    return 0;
}
