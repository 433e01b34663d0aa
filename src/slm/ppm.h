/**
 * @file
 * PPM-C variable-order n-gram model (paper Section 3.1).
 *
 * Prediction by partial matching, escape method C: a context with q
 * distinct successors and n total observations assigns
 *
 *   P(sigma | s) = c(sigma) / (n + q)          when sigma followed s,
 *   P(escape | s) = q / (n + q)                otherwise,
 *
 * recursing to the next shorter context on escape and bottoming out in
 * the uniform distribution over the alphabet. With `exclusion`
 * enabled, symbols already accounted for at longer contexts are
 * removed from shorter-context distributions (full PPM-C; conditional
 * distributions then sum to exactly 1).
 *
 * Hot path: finalize() precomputes, for every stored context node,
 * the per-successor conditional probabilities and the escape
 * probability into contiguous vectors indexed by the flat trie's
 * node ids. A finalized query is then a context-chain walk plus one
 * binary search and one or two contiguous-array reads per order -- no
 * maps. The batch query sequence_log_probs() (the divergence stage's
 * inner loop, and sequence_log_prob()'s for one word) reuses one chain
 * buffer across its symbols and the walk of the prefix each word
 * shares with the previous one. The precomputed values are the *same* IEEE
 * expressions the on-demand path evaluates, so finalization never
 * changes a probability (tests/flat_trie_test.cc pins byte-identity
 * against the original pointer-trie implementation).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "slm/context_trie.h"
#include "slm/model.h"

namespace rock::slm {

/** PPM model, escape method C. */
class PpmModel final : public LanguageModel {
  public:
    PpmModel(int alphabet_size, int depth, bool exclusion)
        : trie_(depth), alphabet_size_(alphabet_size),
          exclusion_(exclusion) {}

    void train(const std::vector<int>& seq) override;
    double prob(int symbol,
                const std::vector<int>& context) const override;
    /** Whole-word query: the one-word case of sequence_log_probs(). */
    double sequence_log_prob(const std::vector<int>& seq) const override;
    /**
     * Batch query. A finalized model without exclusion walks each
     * symbol's context chain into a buffer reused across the batch,
     * with prob()'s fast-path arithmetic and escapes, and allocates
     * nothing once its buffers have grown. Each word restarts from the
     * partial log-sum and escape count of the prefix it shares with
     * the previous word, since a symbol's probability depends only on
     * the symbols before it; the prefix's escapes are added to the
     * tally again. So values and tally equal the generic per-symbol
     * loop over each word, and ascending (lexicographic) words share
     * the most. Other models take that generic loop.
     */
    void sequence_log_probs(std::span<const std::vector<int>* const> words,
                            std::span<double> out) const override;
    /** Build the per-context probability vectors (idempotent). */
    void finalize() override;
    int alphabet_size() const override { return alphabet_size_; }

    const ContextTrie& trie() const { return trie_; }

    /** Replace the trained trie (snapshot restore). The depth must
     *  match the constructed depth; the caller re-finalizes. */
    void adopt_trie(ContextTrie trie);

  private:
    /** prob()'s fast path for a finalized model without exclusion,
     *  given the context chain (root first). */
    double chain_prob(int symbol,
                      const std::vector<ContextTrie::NodeId>& chain) const;

    /**
     * The general evaluator: handles exclusion and un-finalized
     * models. Identical arithmetic to the fast path (and to the
     * original pointer implementation).
     */
    double general_prob(int symbol,
                        const std::vector<int>& context) const;

    ContextTrie trie_;
    int alphabet_size_;
    bool exclusion_;

    // ---- finalize() products (valid while finalized_) -----------------
    /** One conditional probability per (node, successor) entry,
     *  aligned with ContextTrie::counts(node) via prob_offset_. */
    std::vector<double> prob_vals_;
    /** Per node: first index into prob_vals_. */
    std::vector<std::uint32_t> prob_offset_;
    /** Per node: escape probability (0.0 when the context covers the
     *  whole alphabet). */
    std::vector<double> escape_p_;
    bool finalized_ = false;
};

} // namespace rock::slm
