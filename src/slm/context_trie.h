/**
 * @file
 * Suffix-context trie with next-symbol counts -- flat arena edition.
 *
 * The trie stores, for every context s of length 0..D seen in
 * training, the count of each symbol that followed s. Children are
 * keyed by the *most recent* context symbol first, so looking up a
 * context walks backwards through the history.
 *
 * Layout: nodes live in one contiguous arena (`std::vector`) and
 * refer to each other by 32-bit index, never by pointer. Per node,
 * successor counts and child links are sorted small vectors -- the
 * same ascending-symbol iteration order the original
 * `std::map<int, ...>` node gave, so every probability computed over
 * the trie is byte-identical to the pointer implementation
 * (tests/flat_trie_test.cc pins this property). Node totals sit in a
 * separate SoA vector so the hot escape/backoff loops touch only
 * contiguous memory.
 *
 * Compared to the original one-heap-allocation-per-map-node design
 * this removes the allocator from the training hot path almost
 * entirely and turns context-chain walks into index arithmetic over
 * two or three cache lines.
 */
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace rock::slm {

/** Count trie over contexts up to a fixed depth. */
class ContextTrie {
  public:
    /** Arena index of a node; the root is always node 0. */
    using NodeId = std::int32_t;
    static constexpr NodeId kRoot = 0;

    explicit ContextTrie(int depth) : depth_(depth)
    {
        nodes_.emplace_back();
        totals_.push_back(0);
    }

    /** Record all context/successor pairs of @p seq. */
    void add_sequence(const std::vector<int>& seq);

    /**
     * Deepest stored node for the trailing context of @p context,
     * bounded by the trie depth; the path found is appended to
     * @p chain from shallowest (root) to deepest.
     */
    void context_chain(std::span<const int> context,
                       std::vector<NodeId>& chain) const;
    void context_chain(const std::vector<int>& context,
                       std::vector<NodeId>& chain) const
    {
        context_chain(std::span<const int>(context), chain);
    }

    int depth() const { return depth_; }

    /** Sum of successor counts at @p node. */
    long total(NodeId node) const
    {
        return totals_[static_cast<std::size_t>(node)];
    }

    /** Number of distinct successors seen at @p node. */
    std::size_t distinct(NodeId node) const
    {
        return nodes_[static_cast<std::size_t>(node)].counts.size();
    }

    /**
     * Successor counts of @p node: (symbol, count) pairs sorted by
     * symbol ascending -- contiguous, iteration-stable.
     */
    const std::vector<std::pair<int, int>>& counts(NodeId node) const
    {
        return nodes_[static_cast<std::size_t>(node)].counts;
    }

    /** Count of @p symbol at @p node (0 when unseen). */
    int count_of(NodeId node, int symbol) const;

    /** Child of @p node for previous-symbol @p symbol, or -1. */
    NodeId child(NodeId node, int symbol) const;

    /**
     * Child links of @p node: (previous context symbol, arena index)
     * pairs sorted by symbol ascending. Snapshot/traversal surface;
     * indices are stable because the arena never reorders.
     */
    const std::vector<std::pair<int, NodeId>>& children_of(
        NodeId node) const
    {
        return nodes_[static_cast<std::size_t>(node)].children;
    }

    /**
     * Replace the whole arena from snapshot data (src/slm/snapshot.h).
     * Node 0 is the root; `counts`/`children`/`totals` are parallel
     * per-node vectors in arena order, each (key, value) list sorted
     * by key ascending. Returns false -- leaving the trie as a fresh
     * root-only arena -- when the shapes are inconsistent (size
     * mismatch, empty arena, or a child index outside the arena).
     */
    bool restore(
        std::vector<std::vector<std::pair<int, int>>> counts,
        std::vector<std::vector<std::pair<int, NodeId>>> children,
        std::vector<long> totals);

    /** Count-of-counts per context order (for Good-Turing). */
    std::vector<std::vector<std::pair<int, long>>>
    count_of_counts() const;

    /** Total stored nodes including the root (model-size metric:
     *  obs counter `slm.trie_nodes`). */
    std::size_t node_count() const { return nodes_.size(); }

  private:
    struct Node {
        /** (next symbol, occurrence count), sorted by symbol. */
        std::vector<std::pair<int, int>> counts;
        /** (previous context symbol, arena index), sorted by symbol. */
        std::vector<std::pair<int, NodeId>> children;
    };

    /** counts[] slot of @p symbol at @p node, inserting at the sorted
     *  position when absent. */
    int& count_slot(NodeId node, int symbol);

    /** Child for @p symbol at @p node, allocating it when absent. */
    NodeId child_or_create(NodeId node, int symbol);

    int depth_;
    std::vector<Node> nodes_;
    /** Per-node successor-count totals (SoA next to the arena). */
    std::vector<long> totals_;
};

} // namespace rock::slm
