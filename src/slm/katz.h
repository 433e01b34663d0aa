/**
 * @file
 * Katz back-off model with Good-Turing discounting.
 *
 * The paper (Section 3.1) notes the Katz back-off model as an
 * alternative to PPM-C. Counts r at or below a threshold are
 * discounted to r* = (r+1) N_{r+1} / N_r using per-order
 * count-of-count statistics; the freed probability mass is
 * redistributed over unseen successors proportionally to the
 * next-shorter-context model.
 *
 * finalize() precomputes the count-of-counts tables; the lazy
 * rebuild in prob() remains for direct (train-then-query,
 * single-threaded) users, but a finalized model's prob() is pure and
 * safe to call from many threads at once.
 */
#pragma once

#include "slm/context_trie.h"
#include "slm/model.h"

namespace rock::slm {

/** Katz back-off model. */
class KatzModel final : public LanguageModel {
  public:
    /** Counts at or below this are Good-Turing discounted. */
    static constexpr int kThreshold = 5;

    KatzModel(int alphabet_size, int depth)
        : trie_(depth), alphabet_size_(alphabet_size) {}

    void train(const std::vector<int>& seq) override;
    double prob(int symbol,
                const std::vector<int>& context) const override;
    /** Precompute Good-Turing count-of-counts (idempotent). */
    void finalize() override;
    int alphabet_size() const override { return alphabet_size_; }

    const ContextTrie& trie() const { return trie_; }

    /** Replace the trained trie (snapshot restore). The depth must
     *  match the constructed depth; the caller re-finalizes. */
    void adopt_trie(ContextTrie trie);

  private:
    /** Discount factor d_r for a raw count @p r at @p order. */
    double discount(int order, int r) const;

    /** Probability using the chain suffix starting at @p level;
     *  @p chain is deepest-first. */
    double prob_at(const std::vector<ContextTrie::NodeId>& chain,
                   std::size_t level, int symbol) const;

    ContextTrie trie_;
    int alphabet_size_;
    /** Count-of-counts per order, each (r, N_r) sorted by r;
     *  rebuilt lazily after training unless finalize() ran. */
    mutable std::vector<std::vector<std::pair<int, long>>> coc_;
    mutable bool coc_valid_ = false;
};

} // namespace rock::slm
