/**
 * @file
 * rockhier -- reconstruct the class hierarchy of a VMI binary.
 *
 * Usage:
 *   rockhier IMAGE.vmi [options]
 *
 * Options:
 *   --metric NAME    kl (default) | kl-reversed | js | js-distance
 *   --depth N        SLM context depth (default 2)
 *   --tracelet N     tracelet window length (default 7)
 *   --k N            attach up to N parents per type (CFI relaxation)
 *   --threads N      worker threads (0 = all hardware threads;
 *                    the result is identical for any N)
 *   --cache-dir DIR  persist the artifact cache to DIR so the next
 *                    rockhier run on the same image is warm
 *                    (cache/artifact_cache.h; results stay
 *                    bit-identical, cold or warm)
 *   --cache-max-bytes N  cache budget in bytes (default 256 MiB)
 *   --dot            emit Graphviz instead of the ASCII tree
 *   --families       also print families and feasible parents
 *   --metrics-json F write an obs::MetricsReport (rock-metrics-v1)
 *                    of the run to F
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bir/serialize.h"
#include "cache/artifact_cache.h"
#include "obs/report.h"
#include "rock/pipeline.h"
#include "rock/relaxed.h"
#include "support/error.h"
#include "support/str.h"

int
main(int argc, char** argv)
{
    using namespace rock;

    std::string input;
    std::string metrics_path;
    core::RockConfig config;
    cache::CacheOptions cache_opts;
    bool use_cache = false;
    int k = 1;
    bool dot = false;
    bool families = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            cache_opts.dir = argv[++i];
            use_cache = true;
        } else if (arg == "--cache-max-bytes" && i + 1 < argc) {
            cache_opts.max_bytes = std::strtoull(argv[++i], nullptr, 10);
            use_cache = true;
        } else if (arg == "--metric" && i + 1 < argc) {
            config.metric = divergence::metric_from_name(argv[++i]);
        } else if (arg == "--depth" && i + 1 < argc) {
            config.slm.depth = std::atoi(argv[++i]);
        } else if (arg == "--tracelet" && i + 1 < argc) {
            config.symexec.tracelet_len = std::atoi(argv[++i]);
        } else if (arg == "--k" && i + 1 < argc) {
            k = std::atoi(argv[++i]);
        } else if (arg == "--threads" && i + 1 < argc) {
            config.threads = std::atoi(argv[++i]);
        } else if (arg == "--dot") {
            dot = true;
        } else if (arg == "--families") {
            families = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "rockhier: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            input = arg;
        }
    }
    if (input.empty()) {
        std::fprintf(stderr,
                     "usage: rockhier IMAGE.vmi [--metric NAME] "
                     "[--depth N] [--tracelet N] [--k N] "
                     "[--threads N] [--cache-dir DIR] "
                     "[--cache-max-bytes N] [--dot] [--families] "
                     "[--metrics-json FILE]\n");
        return 2;
    }
    if (use_cache)
        cache::set_default_cache(
            std::make_shared<cache::ArtifactCache>(cache_opts));

    try {
        bir::BinaryImage image = bir::read_image_file(input);
        core::ReconstructionResult result =
            core::reconstruct(image, config);
        core::Hierarchy hierarchy =
            k > 1 ? core::relaxed_hierarchy(result, k)
                  : result.hierarchy;

        // Use symbol names when the binary kept them.
        hierarchy.set_names(image.symbols);

        if (families) {
            const auto& sr = result.structural;
            std::printf("families: %d (%d behaviorally resolved)\n",
                        sr.num_families(), result.ambiguous_families);
            for (int c = 0;
                 c < static_cast<int>(sr.types.size()); ++c) {
                std::printf("  %s: family %d, feasible parents:",
                            support::hex(sr.types[static_cast<
                                             std::size_t>(c)])
                                .c_str(),
                            sr.family[static_cast<std::size_t>(c)]);
                for (int p : sr.possible_parents[static_cast<
                         std::size_t>(c)]) {
                    std::printf(" %s",
                                support::hex(
                                    sr.types[static_cast<std::size_t>(
                                        p)])
                                    .c_str());
                }
                std::printf("\n");
            }
            std::printf("\n");
        }

        if (dot)
            std::printf("%s", hierarchy.to_dot("rock").c_str());
        else
            std::printf("%s", hierarchy.to_string().c_str());

        if (!metrics_path.empty()) {
            obs::write_report_file(obs::MetricsReport::capture(),
                                   metrics_path);
        }
        return 0;
    } catch (const support::FatalError& e) {
        std::fprintf(stderr, "rockhier: error: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "rockhier: error: %s\n", e.what());
        return 1;
    }
}
