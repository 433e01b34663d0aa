#include "slm/model.h"

#include <cmath>

#include "obs/metrics.h"
#include "slm/katz.h"
#include "slm/ngram.h"
#include "slm/ppm.h"
#include "support/error.h"

namespace rock::slm {

double
LanguageModel::sequence_log_prob(const std::vector<int>& seq) const
{
    double log_p = 0.0;
    std::vector<int> context;
    context.reserve(seq.size());
    for (int symbol : seq) {
        double p = prob(symbol, context);
        ROCK_ASSERT(p > 0.0, "model returned non-positive probability");
        log_p += std::log(p);
        context.push_back(symbol);
    }
    return log_p;
}

void
LanguageModel::sequence_log_probs(
    std::span<const std::vector<int>* const> words,
    std::span<double> out) const
{
    ROCK_ASSERT(out.size() == words.size(), "one output per word");
    for (std::size_t i = 0; i < words.size(); ++i)
        out[i] = sequence_log_prob(*words[i]);
}

double
LanguageModel::sequence_prob(const std::vector<int>& seq) const
{
    return std::exp(sequence_log_prob(seq));
}

std::unique_ptr<LanguageModel>
make_model(const ModelConfig& config, int alphabet_size)
{
    support::check(alphabet_size > 0,
                   "model requires a non-empty alphabet");
    support::check(config.depth >= 0, "model depth must be >= 0");
    switch (config.kind) {
      case ModelKind::PpmC:
        return std::make_unique<PpmModel>(alphabet_size, config.depth,
                                          config.exclusion);
      case ModelKind::Katz:
        return std::make_unique<KatzModel>(alphabet_size, config.depth);
      case ModelKind::NGram:
        return std::make_unique<NGramModel>(alphabet_size, config.depth);
    }
    support::panic("unknown model kind");
}

std::unique_ptr<LanguageModel>
train_model(const ModelConfig& config, int alphabet_size,
            const std::vector<std::vector<int>>& sequences)
{
    auto model = make_model(config, alphabet_size);
    for (const auto& seq : sequences)
        model->train(seq);
    model->finalize();
    record_training_metrics(*model, sequences);
    return model;
}

void
record_training_metrics(const LanguageModel& model,
                        const std::vector<std::vector<int>>& sequences)
{
    std::uint64_t symbols = 0;
    for (const auto& seq : sequences)
        symbols += seq.size();
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& trained = reg.counter("slm.models_trained");
    static obs::Counter& seqs = reg.counter("slm.training_sequences");
    static obs::Counter& syms = reg.counter("slm.training_symbols");
    trained.add();
    seqs.add(sequences.size());
    syms.add(symbols);
    if (const auto* ppm = dynamic_cast<const PpmModel*>(&model)) {
        static obs::Counter& nodes = reg.counter("slm.trie_nodes");
        nodes.add(ppm->trie().node_count());
    }
}

} // namespace rock::slm
