/**
 * @file
 * Memoized ObservedUnion distances over one family (paper §4.2.1).
 *
 * Each weighed edge (p, c) integrates its metric over the union of the
 * tracelets observed for p and c, so it needs both models' raw word
 * probabilities over that union. Under ObservedUnion both the union and
 * the models depend only on the two types' tracelet multisets, so
 * FamilyWords groups members with equal multisets into twin classes
 * (behavioral twins: equal multisets train equal models) and does each
 * piece of work once per class:
 *
 *  1. intern() (serial): every distinct non-empty tracelet of the
 *     family gets a word id in lexicographic order, every member a twin
 *     class -- its multiset is hashed first, then compared on a hash
 *     match -- and every class the ascending list of its own ids.
 *     Merging two classes' lists in ascending id order yields exactly
 *     merge_word_sets()' order, so every sum below runs in the
 *     per-pair path's order (DESIGN §5.1). Each edge maps to a key, one
 *     per distinct (parent class, child class), numbered in order of
 *     its first edge.
 *  2. fill() (one call per member; distinct members may run
 *     concurrently): a class's first member builds the class's need
 *     list -- its own ids and those of every class it shares a key
 *     with -- and walks its model over the list in one batch
 *     (slm::LanguageModel::sequence_log_probs(), which reuses the walk
 *     of the prefix each word shares with the one before it). Every
 *     other member returns at once.
 *  3. weigh() (any thread, disjoint key ranges, once every class is
 *     filled): per key, merge the two id lists, look up both raw
 *     values per word and evaluate raw_pair_distance(), which equals
 *     pair_distance() over merge_word_sets() bit for bit. The
 *     parent's values are found by a galloping forward search of its
 *     need list; the child's are scattered by word id once per run of
 *     keys into the same class. weight() then reads any edge's weight
 *     from its key.
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

/** One family's word table, twin classes, keys and raw-probability
 *  memo. */
class FamilyWords {
  public:
    /** Reusable per-thread buffers for fill() and weigh(). */
    struct Scratch {
        /** fill()'s word bitmap, all clear between calls. */
        std::vector<std::uint64_t> seen;
        std::vector<std::uint32_t> ids;
        /** fill()'s need-list words and their log-probabilities. */
        std::vector<const std::vector<int>*> words;
        std::vector<double> logs;
        std::vector<double> parent;
        std::vector<double> child;
        /** One child class's memo scattered by word id, so that a run
         *  of keys into that class (the candidate table's order) reads
         *  it without searching; keyed by table generation and
         *  class. */
        std::vector<double> dense;
        std::uint64_t dense_generation = 0;
        std::size_t dense_class = 0;
    };

    /**
     * Intern the tracelets of every member (@p members[i] holds member
     * i's sequences; they are borrowed and must outlive this object),
     * group the members into twin classes and key @p edges, given as
     * (parent, child) member positions. Drops any earlier table and
     * memo.
     */
    void intern(
        const std::vector<const std::vector<std::vector<int>>*>& members,
        std::span<const std::pair<int, int>> edges);

    /**
     * Fill the memo of member @p member's twin class from @p model,
     * the member's trained model, when @p member is the class's first
     * member: one batch walk over the class's need list. A class on no
     * key needs no word. Writes only that class's slots.
     */
    void fill(std::size_t member, const slm::LanguageModel& model,
              Scratch& scratch);

    /** The keys whose first edge lies in [@p begin, @p end): a
     *  contiguous range [first, last). */
    std::pair<std::size_t, std::size_t>
    keys_first_in(std::size_t begin, std::size_t end) const;

    /**
     * Weigh keys [@p first, @p last) under @p kind from both classes'
     * filled memos; 0.0 without counting a pair when neither class
     * observed a word. Writes only those keys' weights.
     */
    void weigh(MetricKind kind, std::size_t first, std::size_t last,
               Scratch& scratch);

    /** The weight weigh() gave edge @p edge's key (undiscounted). */
    double weight(std::size_t edge) const
    {
        return key_weight_[key_of_[edge]];
    }

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
        return ids_[class_of_[member]];
    }
    /** Twin classes, numbered in order of their first member. */
    std::size_t num_classes() const { return ids_.size(); }
    /** Member @p member's twin class. */
    std::size_t twin_class(std::size_t member) const
    {
        return class_of_[member];
    }
    /** Distinct (parent class, child class) keys of the edges. */
    std::size_t num_keys() const { return key_weight_.size(); }
    /** Words the fill of member @p member's class walked its model
     *  over. */
    std::size_t memo_size(std::size_t member) const
    {
        return need_[class_of_[member]].size();
    }

  private:
    double class_distance(MetricKind kind, std::uint32_t parent,
                          std::uint32_t child, Scratch& scratch) const;

    /** Unique per intern() call: tells a Scratch's dense child apart
     *  from any other table's. 0 while empty. */
    std::uint64_t generation_ = 0;
    std::vector<const std::vector<int>*> vocab_;
    /** Per member: its twin class. */
    std::vector<std::uint32_t> class_of_;
    /** Per class: its first member and the ascending ids of its
     *  words. */
    std::vector<std::uint32_t> first_member_;
    std::vector<std::vector<std::uint32_t>> ids_;
    /** Classes each class shares a key with, either direction, once
     *  each (CSR). */
    std::vector<std::uint32_t> adj_offset_;
    std::vector<std::uint32_t> adj_;
    /** Per key: its (parent, child) classes, first edge and weight;
     *  per edge: its key. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> key_classes_;
    std::vector<std::uint32_t> key_first_edge_;
    std::vector<double> key_weight_;
    std::vector<std::uint32_t> key_of_;
    /** Per class: ascending need list and its raw probabilities. */
    std::vector<std::vector<std::uint32_t>> need_;
    std::vector<std::vector<double>> raw_;
};

} // namespace rock::divergence
