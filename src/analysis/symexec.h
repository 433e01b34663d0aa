/**
 * @file
 * Intra-procedural symbolic execution for object-tracelet extraction.
 *
 * Per paper Section 3.2: each function is executed symbolically, path
 * by path (bounded), tracking abstract objects. Objects are discovered
 * at allocation sites (calls to the allocator stub) and as the `this`
 * argument of method/ctor-like functions. Events applied to an object
 * along a path form its event sequence, which is split into tracelets
 * of bounded length.
 *
 * Typing follows the paper: "our analysis relies on assignments of
 * vtable addresses, as seen in object initialization/destruction, and
 * on virtual functions, from which it can determine the object pointed
 * to by the this pointer".
 *
 * Because the analysis is strictly intra-procedural, cost is linear in
 * the number of functions; no call graph is ever built.
 *
 * The abstract domain, the per-instruction transfer and the path-end
 * tracelet cutting live in analysis/transfer.h, shared with rockvm's
 * shadow state; the executor owns path forking and its budgets.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/event.h"
#include "analysis/transfer.h"
#include "analysis/vtable_scan.h"
#include "bir/image.h"

namespace rock::analysis {

/** Knobs for path exploration and tracelet shaping. */
struct SymExecConfig {
    /** Maximum tracelet length (paper uses 7). */
    int tracelet_len = 7;
    /** Cap on completed paths per function. */
    int max_paths = 64;
    /** Cap on instructions executed along one path. */
    int max_steps = 512;
    /** Times a backward branch may be taken per path (loop unrolls). */
    int max_backjumps = 2;
    /** Emit overlapping windows instead of disjoint chunks. */
    bool sliding_windows = false;
    /**
     * Attribute tracelets of a shared method body to every type whose
     * vtable contains the function (behavior inheritance).
     */
    bool attribute_shared_methods_to_all = true;
    /**
     * Worker threads for the per-function sweep: 1 = serial
     * (default), 0 = hardware concurrency, N = exactly N workers.
     * The analysis is strictly intra-procedural, hence embarrassingly
     * parallel (paper Section 3.2: "we can further scale our approach
     * by parallelization"). Results are merged in function order, so
     * the output is identical for any thread count. Read only by the
     * analyze() overloads that build their own pool: the ones that
     * take a support::ThreadPool, and rock::core::reconstruct(), run
     * on the caller's pool.
     */
    int threads = 1;
};

/**
 * Construction evidence about one abstract object, consumed by the
 * structural analysis (Section 5.2 rule 3 and Section 5.3).
 */
struct ObjectEvidence {
    /** Final vtable stored at each object offset. */
    std::map<std::int32_t, std::uint32_t> vptr_stores;
    /** Direct calls that received this object (+offset) as `this`:
     *  (subobject offset, callee address). */
    std::vector<std::pair<std::int32_t, std::uint32_t>> this_calls;
    /**
     * The object was the executed function's own first argument; a
     * function producing such evidence with an offset-0 store is
     * ctor/dtor-like.
     */
    bool from_this_param = false;

    bool operator==(const ObjectEvidence&) const = default;
};

/** Result of symbolically executing one function. */
struct FunctionAnalysis {
    /** Tracelets attributed to each type (keyed by vtable address). */
    std::map<std::uint32_t, std::vector<Tracelet>> tracelets;
    /** Evidence for objects that received at least one vptr store. */
    std::vector<ObjectEvidence> evidence;
    /**
     * Tracelets of the function's own first-argument object when its
     * type could NOT be determined (no vptr store, function in no
     * vtable). These are the inputs to type *prediction* (paper
     * Section 6.3 / Katz et al. [21]): ranking the known types'
     * models by how well they explain an unknown object's behavior.
     */
    std::vector<Tracelet> untyped_this;
    /** Number of completed paths. */
    int paths = 0;
};

/**
 * Executes functions of one image against one set of discovered
 * vtables.
 */
class SymbolicExecutor {
  public:
    /**
     * @param image     the (stripped) binary under analysis
     * @param vtables   discovered vtables (from scan_vtables)
     * @param config    exploration bounds
     */
    SymbolicExecutor(const bir::BinaryImage& image,
                     const std::vector<VTableInfo>& vtables,
                     const SymExecConfig& config);

    /**
     * Execute @p fn.
     *
     * @param this_callees    functions whose first argument is treated
     *                        as `this` (vtable members + known ctors),
     *                        sorted ascending
     * @param arg0_is_object  model the function's own first argument
     *                        as an abstract object
     */
    FunctionAnalysis run(const bir::FunctionEntry& fn,
                         const std::vector<std::uint32_t>& this_callees,
                         bool arg0_is_object) const;

    /**
     * As above, over an already-decoded @p body (e.g. served by a
     * cfg::CfgCache, so both phases and the verifier share one decode
     * per function instead of three).
     */
    FunctionAnalysis run(const bir::FunctionEntry& fn,
                         const std::vector<std::uint32_t>& this_callees,
                         bool arg0_is_object,
                         const std::vector<bir::Instr>& body) const;

    /**
     * The ctor probe: execute @p body with its first argument modeled
     * as an object, exploring paths in run()'s order under the same
     * budget, and return the vtable that the first path whose `this`
     * object ends with an offset-0 vtable store left there -- or
     * nullopt when no path does. A function with an answer is
     * ctor/dtor-like. Builds no tracelets and records no events, and
     * stops at the first answering path.
     */
    std::optional<std::uint32_t>
    probe_ctor(const bir::FunctionEntry& fn,
               const std::vector<bir::Instr>& body) const;

  private:

    const bir::BinaryImage& image_;
    const SymExecConfig config_;
    const VTableIndex vtables_;
};

} // namespace rock::analysis
