/**
 * @file
 * The reconstructed class hierarchy: a node-labeled directed forest
 * over binary types (paper Section 4.1).
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rock::core {

/**
 * A forest over binary types, with optional extra (MI) parents. Each
 * node keeps its child list, updated by set_parent() and
 * add_extra_parent(): children() returns it, and successors() and
 * to_string() walk it instead of scanning every node.
 */
class Hierarchy {
  public:
    Hierarchy() = default;

    /** @param types vtable addresses, ascending; node ids are indices. */
    explicit Hierarchy(std::vector<std::uint32_t> types);

    /** Number of nodes. */
    int size() const { return static_cast<int>(types_.size()); }

    /** Node id of @p vtable_addr, or -1. */
    int index_of(std::uint32_t vtable_addr) const;

    /** Vtable address of node @p id. */
    std::uint32_t type_at(int id) const;

    const std::vector<std::uint32_t>& types() const { return types_; }

    /** Set the primary parent of @p child (-1 clears it). */
    void set_parent(int child, int parent);

    /** Primary parent of @p child, or -1 for roots. */
    int parent(int child) const;

    /** Add a secondary (multiple-inheritance) parent. */
    void add_extra_parent(int child, int parent);

    /** All parents: primary first, then extras. */
    std::vector<int> parents(int child) const;

    /** Direct children (via any parent link), ascending; valid until
     *  the next set_parent() or add_extra_parent(). */
    const std::vector<int>& children(int node) const;

    /**
     * Transitive successors of @p node: every node with @p node on
     * some parent chain. Never includes @p node itself. A walk of the
     * child lists below @p node; it terminates on cyclic input.
     */
    std::set<int> successors(int node) const;

    /** Root nodes (no primary parent), ascending. */
    std::vector<int> roots() const;

    /** Attach a printable name to a node. */
    void set_name(int node, const std::string& name);

    /**
     * Name every node whose vtable address appears in @p names (e.g.
     * the symbols a binary kept); other nodes keep their names.
     */
    void set_names(const std::map<std::uint32_t, std::string>& names);

    /** Name of @p node (falls back to the hex vtable address). */
    std::string name(int node) const;

    /** ASCII rendering of the forest. */
    std::string to_string() const;

    /** Graphviz dot rendering (parent -> child edges; extra parents
     *  dashed). */
    std::string to_dot(const std::string& graph_name = "hierarchy")
        const;

  private:
    std::vector<std::uint32_t> types_;
    std::vector<int> parent_;
    std::vector<std::vector<int>> extra_parents_;
    /** children_[v]: every node with v among its parents, ascending. */
    std::vector<std::vector<int>> children_;
    std::vector<std::string> names_;
};

} // namespace rock::core
