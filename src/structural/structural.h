/**
 * @file
 * Structural pruning of infeasible class hierarchies (paper Section 5).
 *
 * Phase I clusters binary types into families: two vtables that share
 * a virtual-function pointer must come from the same inheritance tree
 * (the shared pointer is the "DNA fingerprint" of Section 5.1). The
 * _purecall trap is excluded from the fingerprint -- it is a runtime
 * stub shared by all abstract types.
 *
 * Phase II eliminates impossible child->parent pairs within each
 * family (Section 5.2):
 *   rule 1: a parent cannot have more vtable slots than its child;
 *   rule 2: a type with a pure slot at position i cannot derive from a
 *           type with a concrete implementation at position i;
 *   rule 3: a constructor that calls another type's constructor on the
 *           same (sub)object fixes that type as the parent, and joins
 *           the two families.
 *
 * Multiple inheritance (Section 5.3): an object initialized with X
 * distinct vptr offsets has X parents; vtables installed at non-zero
 * offsets are secondary vtables of the primary type.
 */
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/symexec.h"
#include "analysis/vtable_scan.h"

namespace rock::structural {

/** Structural facts about the binary types of one image. */
struct StructuralResult {
    /** Binary types (vtable addresses), sorted ascending; all the
     *  index-valued fields below refer to positions in this vector. */
    std::vector<std::uint32_t> types;
    /** Family label per type (dense ids). */
    std::vector<int> family;
    /** possible_parents[c] = indices that may be c's parent,
     *  strictly ascending (search a row with std::binary_search). */
    std::vector<std::vector<int>> possible_parents;
    /** Rule-3 evidence: child -> structurally determined parent. */
    std::map<int, int> forced_parents;
    /** Types observed with multiple vptr offsets: primary type index
     *  -> number of distinct offsets (parents). */
    std::map<int, int> parent_counts;
    /** Secondary vtable -> its primary type (multiple inheritance). */
    std::map<int, int> secondary_of;

    bool operator==(const StructuralResult&) const = default;

    /** Index of @p vtable_addr in types, or -1. */
    int index_of(std::uint32_t vtable_addr) const;

    /** Number of distinct families. */
    int num_families() const;

    /** Type indices of family @p id, ascending. */
    std::vector<int> family_members(int id) const;
};

/**
 * Layout feasibility of one derivation (rules 1 + 2): can a type with
 * vtable @p child directly or transitively derive from one with
 * vtable @p parent? A parent's vtable is a prefix of its child's
 * (rule 1) and a child never re-abstracts a slot its parent
 * implements (rule 2). Shared with the structural-subtyping
 * constraint solver (typeinf/solver.h), which uses the same two rules
 * to orient derives-from evidence.
 */
bool feasible_derivation(const analysis::VTableInfo& child,
                         const analysis::VTableInfo& parent);

/**
 * Run both structural phases.
 *
 * @param vtables     discovered binary types
 * @param evidence    object-construction evidence from the behavioral
 *                    analysis
 * @param ctor_types  ctor-like functions -> constructed primary vtable
 */
StructuralResult
structural_analysis(const std::vector<analysis::VTableInfo>& vtables,
                    const std::vector<analysis::ObjectEvidence>& evidence,
                    const std::map<std::uint32_t, std::uint32_t>&
                        ctor_types);

} // namespace rock::structural
