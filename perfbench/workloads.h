/**
 * @file
 * The benchmark's four workloads (README.md has the table of what
 * each measures and why):
 *
 *   scale_cold   one 2000-class skype_scale image, cold, threads=1;
 *                one op = one reconstruct()
 *   corpus_cold  the 19 Table-2 programs plus 200 fuzz samples, cold,
 *                threads=1; one op = one pass over all of them
 *   cache_warm   one 1000-class skype_scale image against an
 *                ArtifactCache filled during set-up; one op = one warm
 *                reconstruct()
 *   serve_mixed  an in-process serve::Server (1 worker) under
 *                open-loop traffic at 8 req/s; one op = one request
 *
 * An untraced run reports the end-to-end metrics; a traced run
 * (RunOptions::trace) repeats the same inputs, replays every layer
 * under spans (layers.h) and reports the per-layer metrics.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace perfbench {

/** Names accepted by run_workload(), in BENCHMARK.json order. */
const std::vector<std::string>& workload_names();

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured phase length; every workload runs at least one op. */
    double seconds = 25.0;
    bool trace = false;
    Sizes sizes;
    /** Directory for the daemon socket and the span log; relative
     *  paths keep the socket path short. */
    std::string run_dir = ".";
    /** Where the traced run writes its span log (empty: none). */
    std::string span_log;
    /** Test-only hook: edit serve response @p request's payload before
     *  it is checked. */
    std::function<void(std::size_t request,
                       std::vector<std::uint8_t>& payload)>
        corrupt_response;
};

/** Run one workload and return what it measured. Throws
 *  std::invalid_argument for an unknown workload name. */
Report run_workload(const RunOptions& options);

} // namespace perfbench
