/**
 * @file
 * Structural-subtyping type inference over a VM32 image.
 *
 * Facade of the typeinf/ library (DESIGN.md Section 5.5): constraint
 * generation (constraints.h) plus the simple-subtyping solver
 * (solver.h), packaged as one pipeline stage. The pipeline fuses the
 * solved derives-from facts into the arborescence objective -- a
 * solved "P derives from C" prunes the contradictory candidate edge
 * C -> P outright, and a solved "C derives from P" discounts the
 * statistical distance of the agreeing edge P -> C -- so structural
 * evidence sharpens the DKL objective instead of merely filtering it
 * (docs/TYPE_INFERENCE.md).
 *
 * Everything here obeys the pipeline determinism contract: results
 * are bit-identical for every thread count, and malformed evidence
 * becomes diagnostics (DiagKind::SubtypeInconsistent), never a crash.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/vtable_scan.h"
#include "bir/image.h"
#include "cfg/cfg_cache.h"
#include "cfg/verify.h"
#include "support/parallel.h"
#include "typeinf/constraints.h"
#include "typeinf/solver.h"

namespace rock::typeinf {

/** Aggregate counts of one inference run (obs counters mirror it). */
struct TypeInfStats {
    std::size_t functions_walked = 0;
    std::size_t unique_bodies = 0;
    std::size_t constraints = 0;
    std::size_t object_vars = 0;
    std::size_t subtype_edges = 0;
    std::size_t inconsistencies = 0;

    bool operator==(const TypeInfStats&) const = default;
};

/** Full output of the inference pass. */
struct TypeInfResult {
    /** Type identities: vtable addresses, ascending. */
    std::vector<std::uint32_t> types;
    /** Every generated constraint (provenance-tagged). */
    ConstraintSet constraints;
    /** Per-type capability sketches, indexed like `types`. */
    std::vector<TypeSketch> sketches;
    /** Direct derives-from facts: (derived vt, base vt), sorted. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> direct_edges;
    /** Transitive closure of direct_edges, sorted. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> subtype_edges;
    /** Contradictory evidence, deterministic order. */
    std::vector<Inconsistency> inconsistencies;
    /** Bound type index per object variable (-1 = unbound). */
    std::vector<int> var_type;
    TypeInfStats stats;

    bool operator==(const TypeInfResult&) const = default;

    /** Index of @p vtable_addr in `types`, or -1. */
    int index_of(std::uint32_t vtable_addr) const;

    /** Is "derived ⊑ base" a solved fact (closure lookup)? */
    bool subtype(std::uint32_t derived, std::uint32_t base) const;

    /** Inconsistencies as rockcheck subtype-inconsistent findings. */
    std::vector<cfg::Diagnostic> diagnostics() const;
};

/**
 * Run inference over @p image on @p pool, reusing the already-built
 * @p cache and discovered @p vtables from earlier stages.
 */
TypeInfResult infer(const bir::BinaryImage& image,
                    const cfg::CfgCache& cache,
                    const std::vector<analysis::VTableInfo>& vtables,
                    support::ThreadPool& pool);

/** As above, threading @p artifacts through to the memoizing
 *  generate_constraints overload (kind "typeinf"). All typeinf.*
 *  counters derive from the (cached or recomputed) outputs, so warm
 *  runs replay them bit-identically. */
TypeInfResult infer(const bir::BinaryImage& image,
                    const cfg::CfgCache& cache,
                    const std::vector<analysis::VTableInfo>& vtables,
                    support::ThreadPool& pool,
                    const std::shared_ptr<cache::ArtifactCache>& artifacts);

/** Self-contained variant: builds its own cache and vtable scan on a
 *  transient pool of resolve_threads(@p threads) workers. */
TypeInfResult infer(const bir::BinaryImage& image, int threads = 1);

} // namespace rock::typeinf
