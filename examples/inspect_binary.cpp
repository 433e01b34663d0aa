/**
 * @file
 * A reverse-engineering tool built on the public API: dump what Rock
 * can tell about a stripped binary -- vtables, constructor-like
 * functions, multiple-inheritance layouts, families, feasible
 * parents, and the final hierarchy -- for any of the 19 bundled
 * Table-2 benchmarks.
 *
 * Usage: inspect_binary [benchmark-name]   (default: CGridListCtrlEx)
 */
#include <cstdio>
#include <string>

#include "corpus/benchmarks.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "support/str.h"
#include "toyc/compiler.h"

int
main(int argc, char** argv)
{
    using namespace rock;

    std::string name = argc > 1 ? argv[1] : "CGridListCtrlEx";
    corpus::BenchmarkSpec spec = corpus::benchmark_by_name(name);
    toyc::CompileResult compiled =
        toyc::compile(spec.program.program, spec.program.options);
    core::ReconstructionResult result =
        core::reconstruct(compiled.image);

    std::printf("== %s: %zu functions, %zu code bytes, %zu data "
                "bytes ==\n\n",
                name.c_str(), compiled.image.functions.size(),
                compiled.image.code.size(),
                compiled.image.data.size());

    std::printf("discovered vtables:\n");
    for (const auto& vt : result.analysis.vtables) {
        std::printf("  %s: %zu slots, %zu tracelets\n",
                    support::hex(vt.addr).c_str(), vt.slots.size(),
                    result.analysis.type_tracelets[vt.addr].size());
    }

    std::printf("\nconstructor-like functions: %zu\n",
                result.analysis.ctor_types.size());
    for (const auto& [fn, vt] : result.analysis.ctor_types) {
        std::printf("  %s constructs %s\n",
                    support::hex(fn).c_str(),
                    support::hex(vt).c_str());
    }

    const auto& sr = result.structural;
    std::printf("\nfamilies: %d\n", sr.num_families());
    for (int f = 0; f < sr.num_families(); ++f) {
        std::printf("  family %d:", f);
        for (int member : sr.family_members(f)) {
            std::printf(" %s",
                        support::hex(sr.types[static_cast<std::size_t>(
                                         member)])
                            .c_str());
        }
        std::printf("\n");
    }
    std::printf("rule-3 forced parents: %zu; multiple-inheritance "
                "types: %zu\n",
                sr.forced_parents.size(), sr.secondary_of.size());

    std::printf("\nreconstructed hierarchy (stripped names):\n%s",
                result.hierarchy.to_string().c_str());

    // With the debug side channel (a luxury real reverse engineers
    // lack), attach source names for comparison.
    eval::GroundTruth gt =
        eval::ground_truth_from_debug(compiled.debug);
    core::Hierarchy named = result.hierarchy;
    named.set_names(gt.names);
    std::printf("\nsame hierarchy with ground-truth names:\n%s",
                named.to_string().c_str());
    return 0;
}
