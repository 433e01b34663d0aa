/**
 * @file
 * Memoized ObservedUnion distances over one family (paper §4.2.1).
 *
 * Each weighed edge (p, c) integrates its metric over the union of the
 * tracelets observed for p and c, so it needs both models' raw word
 * probabilities over that union. A type's raw probability of a word
 * does not depend on the pair, so FamilyWords walks each member's
 * model once per word its edges need instead of once per (edge, word):
 *
 *  1. intern() (serial): every distinct non-empty tracelet of the
 *     family gets a word id in lexicographic order, and every member
 *     the ascending list of its own ids. Merging two members' lists in
 *     ascending id order yields exactly merge_word_sets()' order, so
 *     every sum below runs in the per-pair path's order (DESIGN §5.1).
 *  2. fill() (one call per member; distinct members may run
 *     concurrently): the member's need list -- its own ids and those of
 *     every edge neighbour -- and one sequence_prob() per listed word.
 *  3. distance() (any thread, once both ends are filled): merge the two
 *     id lists, look up both raw values per word and evaluate
 *     raw_pair_distance(), which equals pair_distance() over
 *     merge_word_sets() bit for bit. The parent's values are found by
 *     a forward search of its need list; the child's are scattered by
 *     word id once per run of edges into the same child.
 *
 * Only raw probabilities are memoized: normalized values and
 * log-ratios depend on the pair.
 */
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "divergence/metrics.h"
#include "slm/model.h"

namespace rock::divergence {

/** One family's word table and per-member raw-probability memo. */
class FamilyWords {
  public:
    /** Reusable per-thread buffers for fill() and distance(). */
    struct Scratch {
        std::vector<std::uint8_t> seen;
        std::vector<std::uint32_t> ids;
        std::vector<double> parent;
        std::vector<double> child;
        /** One child's memo scattered by word id, so that a run of
         *  edges into that child (the candidate table's order) reads
         *  it without searching; keyed by table generation and
         *  member. */
        std::vector<double> dense;
        std::uint64_t dense_generation = 0;
        std::size_t dense_member = 0;
    };

    /**
     * Intern the tracelets of every member (@p members[i] holds member
     * i's sequences; they are borrowed and must outlive this object)
     * and index @p edges, given as (parent, child) member positions.
     * Drops any earlier table and memo.
     */
    void intern(
        const std::vector<const std::vector<std::vector<int>>*>& members,
        std::span<const std::pair<int, int>> edges);

    /**
     * Fill member @p member's memo from @p model, its trained model:
     * one sequence_prob() per word of its need list. A member on no
     * edge needs no word. Writes only this member's slots.
     */
    void fill(std::size_t member, const slm::LanguageModel& model,
              Scratch& scratch);

    /**
     * Distance of the edge @p parent -> @p child under @p kind, read
     * from both members' filled memos; 0.0 without counting a pair
     * when neither member observed a word.
     */
    double distance(MetricKind kind, std::size_t parent,
                    std::size_t child, Scratch& scratch) const;

    /** Free the table and the memo. */
    void clear();

    /** Distinct words of the family. */
    std::size_t vocabulary_size() const { return vocab_.size(); }
    /** The word with id @p id. */
    const std::vector<int>& word(std::uint32_t id) const
    {
        return *vocab_[id];
    }
    /** Ascending ids of member @p member's own words. */
    const std::vector<std::uint32_t>& word_ids(std::size_t member) const
    {
        return ids_[member];
    }
    /** Words member @p member's fill walked its model over. */
    std::size_t memo_size(std::size_t member) const
    {
        return need_[member].size();
    }

  private:
    /** Unique per intern() call: tells a Scratch's dense child apart
     *  from any other table's. 0 while empty. */
    std::uint64_t generation_ = 0;
    std::vector<const std::vector<int>*> vocab_;
    std::vector<std::vector<std::uint32_t>> ids_;
    /** Edge neighbours of each member, both directions (CSR). */
    std::vector<std::uint32_t> adj_offset_;
    std::vector<std::uint32_t> adj_;
    /** Per member: ascending need list and its raw probabilities. */
    std::vector<std::vector<std::uint32_t>> need_;
    std::vector<std::vector<double>> raw_;
};

} // namespace rock::divergence
