/**
 * @file
 * Constraint generation for the structural-subtyping pass.
 *
 * A flow-insensitive, BinSub-flavored constraint generator over VM32:
 * one linear pass per unique function body tracks which registers
 * hold object pointers (abstract object variables), at which offsets,
 * and emits four constraint forms (the grammar of
 * docs/TYPE_INFERENCE.md):
 *
 *   VptrStore   v.off <- VT_k         a vtable constant stored through
 *                                     an object pointer
 *   MethodSlot  v.off has slot i      an indirect call through the
 *                                     two-load dispatch idiom
 *   ThisArg     v.off ~this~> F       an object (sub)pointer passed as
 *                                     argument slot 0 of a direct call
 *   FieldAccess v has field at off    an object load/store that is not
 *                                     part of the vptr idiom
 *
 * Object variables come from exactly two sources -- the incoming
 * `this` argument (GetArg slot 0) and allocation-stub results (GetRet
 * after Call kAllocStub) -- and propagate through MovReg/AddImm.
 * Where the linear scan loses track (control-flow joins), the
 * existing dataflow facts take over: reaching definitions recover
 * `this`-derived pointers (every reaching def is a GetArg-0 site) and
 * constant propagation recovers vtable constants and indirect-call
 * targets the scan did not see directly.
 *
 * Every constraint carries its originating function and instruction
 * address, so any solved fact can be explained back to the evidence
 * (`rockdump --constraints`).
 *
 * Bodies are walked once per unique body (cfg::CfgCache content
 * hash): byte-identical bodies produce identical constraints modulo
 * the address rebase, so COMDAT-style duplicates cost one scan.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/vtable_scan.h"
#include "bir/image.h"
#include "cfg/cfg_cache.h"
#include "support/parallel.h"

namespace rock::cache {
class ArtifactCache;
}

namespace rock::typeinf {

/** The four constraint forms. */
enum class ConstraintKind : std::uint8_t {
    VptrStore,
    MethodSlot,
    ThisArg,
    FieldAccess,
};

/** Stable kebab-case name of @p kind ("vptr-store", ...). */
const char* constraint_name(ConstraintKind kind);

/** One generated constraint. Fields beyond (kind, var, offset) are
 *  populated per kind; unused ones stay zero. */
struct Constraint {
    ConstraintKind kind = ConstraintKind::VptrStore;
    /** Abstract object variable (image-wide dense id). */
    int var = -1;
    /** Byte offset into the object the constraint is about. */
    std::int32_t offset = 0;
    /** VptrStore: the stored vtable's address. */
    std::uint32_t vtable = 0;
    /** MethodSlot: dispatched vtable slot index. */
    int slot = -1;
    /** ThisArg: direct-call target receiving the pointer as arg 0. */
    std::uint32_t callee = 0;
    /** FieldAccess: true for stores, false for loads. */
    bool is_store = false;

    /** Provenance: enclosing function entry + instruction address. */
    std::uint32_t func_addr = 0;
    std::uint32_t addr = 0;

    bool operator==(const Constraint&) const = default;
};

/** "0x1040: [vptr-store] v3+0 <- vt 0x100040" etc. */
std::string to_string(const Constraint& constraint);

/** Everything the generator produced for one image. */
struct ConstraintSet {
    /** All constraints, in (function-table index, address) order. */
    std::vector<Constraint> constraints;
    /** Total abstract object variables allocated. */
    int num_vars = 0;
    /** this-param variable per function entry address, or -1:
     *  this_vars[i] belongs to image.functions[i]. */
    std::vector<int> this_vars;
    /** Unique bodies actually scanned (<= functions). */
    std::size_t unique_bodies = 0;

    bool operator==(const ConstraintSet&) const = default;
};

/**
 * Generate constraints for every function of @p image on @p pool
 * (chunked by body size, one scan per unique body, merged in
 * function-table order -- bit-identical for every pool size).
 *
 * @param vtables  discovered vtables; MovImm of one of these
 *                 addresses is what makes a store a VptrStore.
 *                 Requires @p cache to be built.
 */
ConstraintSet
generate_constraints(const bir::BinaryImage& image,
                     const cfg::CfgCache& cache,
                     const std::vector<analysis::VTableInfo>& vtables,
                     support::ThreadPool& pool);

/**
 * As above, memoizing each representative body's scan in
 * @p artifacts (kind "typeinf") when non-null. Keys cover the rep's
 * body hash + entry address; fingerprints cover the image digest and
 * the vtable address set, never the pool size -- warm results are
 * bit-identical across thread counts.
 */
ConstraintSet
generate_constraints(const bir::BinaryImage& image,
                     const cfg::CfgCache& cache,
                     const std::vector<analysis::VTableInfo>& vtables,
                     support::ThreadPool& pool,
                     const std::shared_ptr<cache::ArtifactCache>&
                         artifacts);

} // namespace rock::typeinf
