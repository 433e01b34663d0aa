#include "rock/classify.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace rock::core {

std::vector<TypePrediction>
classify_tracelets(const ReconstructionResult& result,
                   const std::vector<analysis::Tracelet>& tracelets)
{
    const int n = static_cast<int>(result.structural.types.size());
    ROCK_ASSERT(static_cast<int>(result.models.size()) == n,
                "reconstruction did not retain its models");

    // Map events to the reconstruction's alphabet; unseen events map
    // to -1 and are charged the uniform floor below.
    std::vector<std::vector<int>> seqs;
    long symbols = 0;
    for (const auto& tracelet : tracelets) {
        if (tracelet.empty())
            continue;
        seqs.push_back(result.alphabet.lookup(tracelet));
        symbols += static_cast<long>(tracelet.size());
    }
    if (symbols == 0)
        return {};

    const int alphabet_size = std::max(1, result.alphabet.size());
    const double floor_logp =
        -std::log(static_cast<double>(alphabet_size));

    std::vector<TypePrediction> ranking;
    ranking.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        const slm::LanguageModel& model =
            *result.models[static_cast<std::size_t>(t)];
        double log_p = 0.0;
        for (const auto& seq : seqs) {
            std::vector<int> context;
            context.reserve(seq.size());
            for (int symbol : seq) {
                if (symbol < 0) {
                    // Event outside the training alphabet: uniform
                    // penalty, and it cannot extend any context.
                    log_p += floor_logp;
                    context.clear();
                    continue;
                }
                log_p += std::log(model.prob(symbol, context));
                context.push_back(symbol);
            }
        }
        TypePrediction pred;
        pred.vtable_addr =
            result.structural.types[static_cast<std::size_t>(t)];
        pred.score = log_p / static_cast<double>(symbols);
        ranking.push_back(pred);
    }
    std::stable_sort(ranking.begin(), ranking.end(),
                     [](const TypePrediction& a,
                        const TypePrediction& b) {
                         return a.score > b.score;
                     });
    return ranking;
}

std::vector<TypePrediction>
classify_function_receiver(const ReconstructionResult& result,
                           const bir::BinaryImage& image,
                           std::uint32_t function_addr,
                           const analysis::SymExecConfig& config)
{
    const bir::FunctionEntry* fn = image.function_at(function_addr);
    support::check(fn != nullptr,
                   "no function at the given address");
    analysis::SymbolicExecutor exec(image, result.analysis.vtables,
                                    config);
    // Treat every known vtable member and ctor as a this-callee so
    // argument-passing events classify the same way they did during
    // reconstruction.
    analysis::FunctionAnalysis fa =
        exec.run(*fn, analysis::this_callee_set(result.analysis),
                 /*arg0_is_object=*/true);
    return classify_tracelets(result, fa.untyped_this);
}

} // namespace rock::core
