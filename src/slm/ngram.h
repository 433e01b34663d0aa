/**
 * @file
 * Fixed-order Laplace-smoothed n-gram model (baseline).
 *
 * Uses the longest stored context up to the configured depth and
 * additive smoothing: P = (c + alpha) / (n + alpha * |Sigma|), with
 * alpha = 1.
 */
#pragma once

#include "slm/context_trie.h"
#include "slm/model.h"

namespace rock::slm {

/** Laplace-smoothed fixed-order n-gram. */
class NGramModel final : public LanguageModel {
  public:
    /** Laplace smoothing constant. */
    static constexpr double kAlpha = 1.0;

    NGramModel(int alphabet_size, int depth)
        : trie_(depth), alphabet_size_(alphabet_size) {}

    void train(const std::vector<int>& seq) override;
    double prob(int symbol,
                const std::vector<int>& context) const override;
    int alphabet_size() const override { return alphabet_size_; }

    const ContextTrie& trie() const { return trie_; }

    /** Replace the trained trie (snapshot restore). The depth must
     *  match the constructed depth. */
    void adopt_trie(ContextTrie trie);

  private:
    ContextTrie trie_;
    int alphabet_size_;
};

} // namespace rock::slm
