/**
 * @file
 * Statistical language models over tracelet symbols.
 *
 * Paper Section 3.1: a model Pr trained on sequences over a finite
 * alphabet assigns Pr(sigma | s) to any symbol given a past, and
 * Pr(x_1..x_T) = prod_i Pr(x_i | x_1..x_{i-1}).
 *
 * Three interchangeable families are provided:
 *  - PPM-C variable-order n-gram with escape/backoff (the paper's
 *    choice),
 *  - Katz back-off with Good-Turing discounting (the paper's named
 *    alternative),
 *  - fixed-order Laplace-smoothed n-gram (baseline).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace rock::slm {

/** Model families. */
enum class ModelKind { PpmC, Katz, NGram };

/** Configuration shared by all model families. */
struct ModelConfig {
    ModelKind kind = ModelKind::PpmC;
    /** Maximum context length D (the paper's figures use depth 2). */
    int depth = 2;
    /** PPM: apply exclusions when backing off. */
    bool exclusion = false;
};

/** Common interface of all trained sequence models. */
class LanguageModel {
  public:
    virtual ~LanguageModel() = default;

    /** Add one training sequence (one tracelet). */
    virtual void train(const std::vector<int>& seq) = 0;

    /**
     * Conditional probability P(symbol | context). The model uses at
     * most its configured depth of trailing context. Always positive.
     */
    virtual double prob(int symbol,
                        const std::vector<int>& context) const = 0;

    /**
     * Freeze the model after training: precompute whatever the
     * family's query fast path needs (PPM probability vectors, Katz
     * count-of-counts). Idempotent; never changes any probability.
     * train_model() calls this, so a finalized model's prob() is pure
     * and safe to share across threads. Training again un-finalizes.
     */
    virtual void finalize() {}

    /** Alphabet size the model was constructed for. */
    virtual int alphabet_size() const = 0;

    /**
     * Natural log-probability of a whole sequence: the sum, in symbol
     * order, of ln prob(x_i | x_1..x_{i-1}). A family may override it
     * with a faster walk that returns the same bits and takes the same
     * escapes (PpmModel does for finalized models without exclusion).
     */
    virtual double sequence_log_prob(const std::vector<int>& seq) const;

    /**
     * sequence_log_prob() of each of @p words, in order, into @p out
     * (same size): the same bits and the same escapes as one call per
     * word. A family may override it with a walk that shares work
     * between consecutive words (PpmModel reuses the prefix each word
     * shares with the previous one), so sorted words walk fastest.
     */
    virtual void sequence_log_probs(
        std::span<const std::vector<int>* const> words,
        std::span<double> out) const;

    /** Probability of a whole sequence. */
    double sequence_prob(const std::vector<int>& seq) const;
};

/** Construct an untrained model of the configured family. */
std::unique_ptr<LanguageModel> make_model(const ModelConfig& config,
                                          int alphabet_size);

/** Convenience: construct and train on @p sequences. */
std::unique_ptr<LanguageModel>
train_model(const ModelConfig& config, int alphabet_size,
            const std::vector<std::vector<int>>& sequences);

/**
 * Bump the `slm.*` training counters exactly as train_model() would
 * have for (@p model, @p sequences). train_model() calls this itself;
 * the warm-cache path (src/cache/) calls it after restoring a trained
 * model from a snapshot, so replayed counters match a cold run bit
 * for bit.
 */
void record_training_metrics(
    const LanguageModel& model,
    const std::vector<std::vector<int>>& sequences);

/**
 * Monotone per-thread total of PPM escapes taken on the calling
 * thread, the only per-escape count. reconstruct() reads its deltas
 * around each family's model walks, stores them in the family's
 * "famdist" artifact and adds them to the `slm.escapes` counter once
 * per family; a direct query outside reconstruct() moves only this
 * tally.
 */
std::uint64_t thread_escape_tally();

} // namespace rock::slm
