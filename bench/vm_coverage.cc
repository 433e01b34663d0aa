/**
 * @file
 * Measures what coverage-guided seed selection buys the fuzzer:
 * at an equal case count, how many distinct rockvm basic-block
 * fingerprints does a campaign execute when each case is (a) the
 * blind sample_spec() choice versus (b) the winner of a
 * --coverage-pool candidate pool (fuzz/fuzzer.cc)?
 *
 * The blind arm executes exactly the spec a coverage_pool=1 campaign
 * would run for each seed and unions the block fingerprints; the
 * guided arm reads FuzzReport::covered_blocks from a real campaign
 * over the same seed range. One JSON line per arm goes to --json FILE
 * (or stdout).
 *
 * Usage:
 *   vm_coverage [--seeds N] [--pool P] [--json FILE]
 *               [--metrics-json FILE]
 *
 * Exit status: 0 when the guided arm strictly beats the blind arm,
 * 1 otherwise, 2 on usage errors.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "analysis/vtable_scan.h"
#include "corpus/generator.h"
#include "fuzz/fuzzer.h"
#include "obs/report.h"
#include "toyc/compiler.h"
#include "vm/vm.h"

int
main(int argc, char** argv)
{
    using namespace rock;

    int seeds = 40;
    int pool = 4;
    std::uint64_t first_seed = 1;
    std::string json_path;
    std::string metrics_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::atoi(argv[++i]);
        } else if (arg == "--pool" && i + 1 < argc) {
            pool = std::atoi(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: vm_coverage [--seeds N] [--pool P] "
                         "[--json FILE] [--metrics-json FILE]\n");
            return 2;
        }
    }
    if (seeds < 1 || pool < 2) {
        std::fprintf(stderr,
                     "vm_coverage: need --seeds >= 1, --pool >= 2\n");
        return 2;
    }

    // Blind arm: execute each seed's unguided spec under rockvm and
    // union the layout-insensitive block fingerprints -- the coverage
    // a coverage_pool=1 campaign actually drives.
    std::set<std::uint64_t> blind;
    int blind_failures = 0;
    for (int i = 0; i < seeds; ++i) {
        corpus::GeneratorSpec spec =
            fuzz::sample_spec(first_seed + static_cast<std::uint64_t>(i));
        try {
            toyc::CompileResult compiled =
                toyc::compile(corpus::generate_program(spec));
            std::vector<analysis::VTableInfo> vtables =
                analysis::scan_vtables(compiled.image);
            std::vector<std::uint32_t> callees;
            for (const auto& vt : vtables)
                callees.insert(callees.end(), vt.slots.begin(),
                               vt.slots.end());
            vm::Interpreter interp(compiled.image, vtables, callees,
                                   vm::VmConfig{});
            vm::VmResult run = interp.run_image(1);
            blind.insert(run.coverage.begin(), run.coverage.end());
        } catch (const std::exception&) {
            ++blind_failures; // counted, not covered
        }
    }

    // Guided arm: a real campaign over the same seeds with a
    // candidate pool per case. The structure oracle keeps per-case
    // cost low without disabling the selection machinery.
    fuzz::FuzzOptions options;
    options.seeds = seeds;
    options.first_seed = first_seed;
    options.coverage_pool = pool;
    options.only = {"structure"};
    options.shrink = false;
    fuzz::FuzzReport guided = fuzz::run_fuzz(options);

    double gain =
        blind.empty()
            ? 0.0
            : static_cast<double>(guided.covered_blocks) /
                  static_cast<double>(blind.size());
    std::printf("vm coverage at %d seeds: blind %zu block(s) "
                "(%d build failure(s)), pool=%d guided %zu block(s), "
                "gain %.3fx\n",
                seeds, blind.size(), blind_failures, pool,
                guided.covered_blocks, gain);

    std::FILE* json = nullptr;
    if (!json_path.empty()) {
        json = std::fopen(json_path.c_str(), "w");
        if (!json) {
            std::fprintf(stderr, "vm_coverage: cannot open %s\n",
                         json_path.c_str());
            return 2;
        }
    }
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"vm_coverage\",\"arm\":\"blind\","
                  "\"seeds\":%d,\"pool\":1,\"covered_blocks\":%zu,"
                  "\"build_failures\":%d}\n",
                  seeds, blind.size(), blind_failures);
    std::fputs(line, json ? json : stdout);
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"vm_coverage\",\"arm\":\"guided\","
                  "\"seeds\":%d,\"pool\":%d,\"covered_blocks\":%zu,"
                  "\"gain_vs_blind\":%.3f}\n",
                  seeds, pool, guided.covered_blocks, gain);
    std::fputs(line, json ? json : stdout);
    if (json)
        std::fclose(json);

    if (!metrics_path.empty()) {
        try {
            obs::write_report_file(obs::MetricsReport::capture(),
                                   metrics_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "vm_coverage: error: %s\n",
                         e.what());
            return 2;
        }
    }
    return guided.covered_blocks > blind.size() ? 0 : 1;
}
