/**
 * @file
 * Regenerates the paper's Figs. 3-8 walkthrough on the streams
 * example: the pairwise DKL matrix between the three stream types and
 * the resulting parent ranking. The paper reports
 * DKL(Class3, Class1) = 0.07 < DKL(Class3, Class2) = 0.21, making
 * Class1 (Stream) the more likely parent of Class3
 * (FlushableStream); the *ordering* is what this harness checks.
 */
#include <cstdio>

#include "corpus/examples.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

int
main()
{
    using namespace rock;

    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    core::ReconstructionResult result =
        core::reconstruct(compiled.image);
    eval::GroundTruth gt = eval::ground_truth_from_debug(compiled.debug);

    std::printf("Fig. 3-8: the streams example\n\n");
    std::printf("Binary types (stripped names):\n");
    std::map<std::uint32_t, std::string> paper_names;
    int counter = 1;
    for (std::uint32_t vt : result.structural.types) {
        paper_names[vt] =
            "Class" + std::to_string(counter++) + " (" +
            gt.names.at(vt) + ")";
        std::printf("  %-36s %zu tracelets\n", paper_names[vt].c_str(),
                    result.analysis.type_tracelets[vt].size());
    }

    std::printf("\nPairwise DKL over feasible parent edges:\n");
    for (const auto& [edge, dist] : result.distances) {
        std::printf("  DKL( %-30s || %-30s ) = %.4f\n",
                    paper_names[result.structural.types
                                    [static_cast<std::size_t>(
                                        edge.first)]]
                        .c_str(),
                    paper_names[result.structural.types
                                    [static_cast<std::size_t>(
                                        edge.second)]]
                        .c_str(),
                    dist);
    }

    std::printf("\nReconstructed hierarchy (paper Fig. 6a):\n");
    core::Hierarchy h = result.hierarchy;
    for (int v = 0; v < h.size(); ++v)
        h.set_name(v, gt.names.at(h.type_at(v)));
    std::printf("%s\n", h.to_string().c_str());

    // Sanity: the paper's ranking must hold.
    int stream = result.structural.index_of(
        compiled.debug.class_to_vtable.at("Stream"));
    int confirmable = result.structural.index_of(
        compiled.debug.class_to_vtable.at("ConfirmableStream"));
    int flushable = result.structural.index_of(
        compiled.debug.class_to_vtable.at("FlushableStream"));
    double via_stream = result.distances.at({stream, flushable});
    double via_confirmable =
        result.distances.at({confirmable, flushable});
    std::printf("parent ranking for FlushableStream: "
                "Stream %.4f %s ConfirmableStream %.4f  -> %s\n",
                via_stream, via_stream < via_confirmable ? "<" : ">=",
                via_confirmable,
                via_stream < via_confirmable ? "correct (paper: 0.07 "
                                               "< 0.21)"
                                             : "WRONG");
    return via_stream < via_confirmable ? 0 : 1;
}
