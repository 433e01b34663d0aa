/**
 * @file
 * rockvm -- execute VM32 images concretely and dump what they did.
 *
 * Usage:
 *   rockvm IMAGE.vmi...           execute image files
 *   rockvm --builtin              execute every built-in corpus image
 *                                 (5 examples + 19 Table-2 benchmarks,
 *                                 compiled in-process)
 *
 * Options:
 *   --threads N       interpreter worker threads (0 = hardware
 *                     concurrency); the merged result is identical
 *                     for every thread count
 *   --trace-jsonl F   append every emitted tracelet to F, one
 *                     schema-v1 JSON line each (vm/trace.h)
 *   --metrics-json F  write an obs::MetricsReport of the run to F
 *
 * Each image is analyzed statically first (analysis::analyze) so the
 * interpreter gets the same vtables and this-callee set the
 * differential oracle uses, then every function runs under every
 * configured opaque value. Prints a per-image summary plus one line
 * per trap. Exit status: 0 when every image ran trap-free, 1 when
 * any run trapped, 2 on usage or I/O errors.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "bir/serialize.h"
#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "obs/report.h"
#include "support/error.h"
#include "toyc/compiler.h"
#include "vm/trace.h"
#include "vm/vm.h"

namespace {

using namespace rock;

/** Execute one image; print a summary. @return trap count. */
std::size_t
run_image(const std::string& name, const bir::BinaryImage& image,
          int threads, std::ofstream* trace_out)
{
    vm::VmConfig config;
    analysis::AnalysisResult st = analysis::analyze(image, config.symexec);
    vm::Interpreter interp(image, st, config);
    vm::VmResult result = interp.run_image(threads);

    for (const auto& trap : result.traps) {
        std::printf("%s: trap %s at 0x%x in 0x%x (entry 0x%x, "
                    "detail %u)\n",
                    name.c_str(), vm::trap_name(trap.kind), trap.addr,
                    trap.fn, trap.entry, trap.detail);
    }
    std::size_t typed = 0;
    for (const auto& [type, tracelets] : result.type_tracelets) {
        (void)type;
        typed += tracelets.size();
    }
    std::string entry_note;
    if (image.entry != 0) {
        entry_note =
            " entry=" + image.name_of(image.entry);
    }
    std::printf("%s: %zu function(s), %llu run(s), %llu step(s), "
                "%zu/%zu block(s) covered, %zu typed + %zu untyped "
                "tracelet(s), %zu trap(s)%s%s\n",
                name.c_str(), image.functions.size(),
                static_cast<unsigned long long>(result.stats.runs),
                static_cast<unsigned long long>(result.stats.steps),
                result.coverage.size(), interp.total_blocks(), typed,
                result.untyped_tracelets.size(), result.traps.size(),
                entry_note.c_str(),
                result.traps.empty() ? " -- clean" : "");
    if (trace_out != nullptr)
        *trace_out << vm::to_jsonl(result);
    return result.traps.size();
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> inputs;
    std::string metrics_path;
    std::string trace_path;
    bool builtin = false;
    int threads = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--builtin") {
            builtin = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::atoi(argv[++i]);
        } else if (arg == "--trace-jsonl" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "rockvm: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty() && !builtin) {
        std::fprintf(stderr,
                     "usage: rockvm IMAGE.vmi... | rockvm --builtin "
                     "[--threads N] [--trace-jsonl FILE] "
                     "[--metrics-json FILE]\n");
        return 2;
    }

    std::ofstream trace_file;
    std::ofstream* trace_out = nullptr;
    if (!trace_path.empty()) {
        trace_file.open(trace_path, std::ios::trunc);
        if (!trace_file) {
            std::fprintf(stderr, "rockvm: cannot write '%s'\n",
                         trace_path.c_str());
            return 2;
        }
        trace_out = &trace_file;
    }

    std::size_t total = 0;
    try {
        for (const std::string& input : inputs) {
            bir::BinaryImage image = bir::read_image_file(input);
            total += run_image(input, image, threads, trace_out);
        }
        if (builtin) {
            std::vector<corpus::CorpusProgram> programs = {
                corpus::streams_program(),
                corpus::datasources_program(),
                corpus::echoparams_program(),
                corpus::cgrid_program(),
                corpus::multiple_inheritance_program(),
            };
            for (const auto& prog : programs) {
                toyc::CompileResult built =
                    toyc::compile(prog.program, prog.options);
                total +=
                    run_image(prog.name, built.image, threads,
                              trace_out);
            }
            for (const auto& bench : corpus::table2_benchmarks()) {
                toyc::CompileResult built = toyc::compile(
                    bench.program.program, bench.program.options);
                total +=
                    run_image(bench.name, built.image, threads,
                              trace_out);
            }
        }
    } catch (const support::FatalError& e) {
        std::fprintf(stderr, "rockvm: error: %s\n", e.what());
        return 2;
    }
    if (trace_out != nullptr) {
        trace_file.close();
        if (!trace_file) {
            std::fprintf(stderr, "rockvm: write to '%s' failed\n",
                         trace_path.c_str());
            return 2;
        }
    }
    if (!metrics_path.empty()) {
        try {
            obs::write_report_file(obs::MetricsReport::capture(),
                                   metrics_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "rockvm: error: %s\n", e.what());
            return 2;
        }
    }
    return total == 0 ? 0 : 1;
}
