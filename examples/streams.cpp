/**
 * @file
 * The paper's motivating example (Figs. 3-8), end to end and verbose:
 * shows the stripped disassembly the analyses see, the extracted
 * object tracelets, per-type SLM predictions, the DKL ranking, and
 * the reconstructed hierarchy.
 */
#include <cstdio>

#include "analysis/analyze.h"
#include "corpus/examples.h"
#include "eval/ground_truth.h"
#include "rock/pipeline.h"
#include "slm/model.h"
#include "toyc/compiler.h"

int
main()
{
    using namespace rock;

    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);

    // --- what the reverse engineer actually has -----------------------
    std::printf("=== stripped image (excerpt) ===\n");
    std::string listing = compiled.image.disassemble();
    std::printf("%.1200s...\n\n", listing.c_str());

    // --- behavioral analysis ------------------------------------------
    analysis::AnalysisResult analyzed =
        analysis::analyze(compiled.image);
    eval::GroundTruth gt =
        eval::ground_truth_from_debug(compiled.debug);

    std::printf("=== object tracelets per binary type (Fig. 7) ===\n");
    for (const auto& vt : analyzed.vtables) {
        std::printf("%s:\n", gt.names.at(vt.addr).c_str());
        int shown = 0;
        for (const auto& tracelet :
             analyzed.type_tracelets[vt.addr]) {
            std::printf("  %s\n",
                        analysis::to_string(tracelet).c_str());
            if (++shown == 4) {
                std::printf("  ...\n");
                break;
            }
        }
    }

    // --- an SLM in action (Fig. 8) --------------------------------------
    analysis::Alphabet alphabet;
    std::map<std::uint32_t, std::vector<std::vector<int>>> seqs;
    for (const auto& [vt, tracelets] : analyzed.type_tracelets) {
        for (const auto& tracelet : tracelets)
            seqs[vt].push_back(alphabet.intern(tracelet));
    }
    std::uint32_t flushable =
        compiled.debug.class_to_vtable.at("FlushableStream");
    slm::ModelConfig config; // PPM-C, depth 2 as in the paper
    auto model = slm::train_model(config, alphabet.size(),
                                  seqs.at(flushable));
    std::printf("\n=== depth-2 SLM of FlushableStream (Fig. 8) ===\n");
    analysis::Event send{analysis::EventKind::VirtCall, 0, 0};
    int send_symbol = alphabet.lookup(send);
    if (send_symbol >= 0) {
        std::vector<int> ctx{send_symbol};
        for (int symbol = 0; symbol < alphabet.size(); ++symbol) {
            double p = model->prob(symbol, ctx);
            if (p > 0.05) {
                std::printf("  P( %-8s | C(0) ) = %.3f\n",
                            analysis::to_string(
                                alphabet.event(symbol))
                                .c_str(),
                            p);
            }
        }
    }

    // --- the full pipeline ----------------------------------------------
    core::ReconstructionResult result =
        core::reconstruct(compiled.image);
    std::printf("\n=== DKL ranking and hierarchy (Figs. 6a/4) ===\n");
    for (const auto& [edge, dist] : result.distances) {
        std::printf("  w( %-18s -> %-18s ) = %.4f\n",
                    gt.names
                        .at(result.structural.types
                                [static_cast<std::size_t>(edge.first)])
                        .c_str(),
                    gt.names
                        .at(result.structural.types
                                [static_cast<std::size_t>(
                                    edge.second)])
                        .c_str(),
                    dist);
    }
    core::Hierarchy h = result.hierarchy;
    for (int v = 0; v < h.size(); ++v)
        h.set_name(v, gt.names.at(h.type_at(v)));
    std::printf("\n%s", h.to_string().c_str());
    return 0;
}
