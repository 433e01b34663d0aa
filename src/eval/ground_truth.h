/**
 * @file
 * Ground truth for evaluation (paper Section 6.2).
 *
 * The induced binary type hierarchy -- the hierarchy as it exists in
 * the optimized binary -- can be obtained from two independent
 * sources:
 *
 *  - the compiler's debug side channel (toyc::DebugInfo), always
 *    exact; and
 *  - RTTI records parsed out of a non-stripped image, mirroring how
 *    the paper derived its ground truth from MSVC RTTI.
 *
 * Both must agree; a test asserts it. Synthetic types (secondary
 * vtables of multiple inheritance) are excluded from evaluation, as
 * the paper excludes compiler-generated classes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bir/image.h"
#include "rock/hierarchy.h"
#include "toyc/compiler.h"

namespace rock::eval {

/** The reference hierarchy used for scoring. */
struct GroundTruth {
    /** Evaluated binary types (synthetic ones excluded), ascending. */
    std::vector<std::uint32_t> types;
    /** child vtable -> parent vtable (nearest binary ancestor). */
    std::map<std::uint32_t, std::uint32_t> parent;
    /** vtable -> source class name (when known). */
    std::map<std::uint32_t, std::string> names;
    /** Synthetic vtables (excluded from types). */
    std::set<std::uint32_t> synthetic;

    /**
     * The ground truth as one forest: a core::Hierarchy over types and
     * every vtable `parent` names, linked by `parent`. Build it once
     * per evaluation and query it with successors_in().
     */
    core::Hierarchy forest() const;

    /**
     * Successors of @p type in @p hierarchy that are evaluated types,
     * as vtable addresses. Empty when @p type is not a node of it.
     */
    std::set<std::uint32_t> successors_in(const core::Hierarchy& hierarchy,
                                          std::uint32_t type) const;

    /** Transitive ground-truth successors of @p type: every type with
     *  @p type on its parent chain. Builds forest() for the query. */
    std::set<std::uint32_t> successors(std::uint32_t type) const;
};

/** Ground truth from the compiler's debug side channel. */
GroundTruth ground_truth_from_debug(const toyc::DebugInfo& debug);

/**
 * Ground truth parsed from the RTTI records of a non-stripped image.
 * Fails (support::FatalError) when the image carries no RTTI.
 */
GroundTruth ground_truth_from_rtti(const bir::BinaryImage& image);

} // namespace rock::eval
