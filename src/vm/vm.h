/**
 * @file
 * rockvm: a concrete interpreter for VM32 images.
 *
 * The paper recovers object tracelets purely statically; rockvm is the
 * dynamic side of the cross-check (ROADMAP item 5). It actually runs
 * the fixed-width VM32 stream -- a decode-once dispatch loop over the
 * slots a cfg::CfgCache already recovered, real call frames with a
 * 16-register file and argument slots, a concrete little-endian
 * memory built from the image's data section plus a bump-allocated
 * heap -- and records the object events it *witnesses* (vptr writes,
 * virtual dispatches, this-pointer flows) into the same
 * analysis::Tracelet representation analysis::analyze() produces.
 *
 * ## The shadow state (what makes the differential oracle sound)
 *
 * Every frame carries, next to its concrete register file, a *shadow*
 * analysis::AbsState that it advances with the same
 * analysis::Transfer symexec uses (analysis/transfer.h): one step()
 * per executed instruction, one finish_path() where the frame ends.
 * Event emission and type attribution read only the shadow state;
 * concrete values drive control transfer, memory, and trap checks.
 * Each frame starts with fresh shadow state -- like symexec's
 * standalone per-function analysis -- so a frame's event stream is,
 * step for step, the event stream symexec produces along the same
 * intra-procedural path. Frames end exactly where symexec paths end
 * (Ret/RetVal, falling off the body, the per-path max_steps), so the
 * tracelet *windows* chunk identically too. The knobs come from the
 * one analysis::SymExecConfig in VmConfig::symexec. Consequence: on
 * any image whose concrete paths symexec explores, dynamic tracelets
 * are a subset of static ones -- the `vm-differential` fuzz oracle.
 *
 * Alignment rules for the places concrete and abstract execution
 * could legitimately diverge:
 *
 *  - branch on shadow-Const: follow the shadow direction (symexec
 *    commits to it; divergence from the concrete direction is counted
 *    in VmStats::shadow_divergences, never followed);
 *  - branch on shadow-unknown: follow the concrete direction, except
 *    that a backward branch already taken max_backjumps times at this
 *    pc falls through instead (symexec stops forking there; following
 *    the concrete loop further would emit events in windows the
 *    static side never saw);
 *  - stops that symexec does not have (global step budget, call-depth
 *    cap, traps) must not emit *partial* frames: the entry run keeps
 *    the tracelets of frames that already finished and discards the
 *    in-flight rest.
 *
 * ## Traps
 *
 * Corrupt images trap instead of executing garbage. The taxonomy
 * mirrors the rockcheck diagnostic kinds (cfg/verify.h): what the
 * static verifier flags, the dynamic side refuses to execute. Clean
 * toyc-compiled images run trap-free; tests/vm_test.cc holds a
 * negative test per kind.
 */
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/event.h"
#include "analysis/symexec.h"
#include "analysis/transfer.h"
#include "analysis/vtable_scan.h"
#include "bir/image.h"
#include "cfg/cfg_cache.h"

namespace rock::vm {

/** Number of distinct bir::Op values (Nop..Jz). */
inline constexpr std::size_t kNumOps =
    static_cast<std::size_t>(bir::Op::Jz) + 1;

/** Execution bounds. */
struct VmConfig {
    /**
     * The configuration of the static run being diffed against. The
     * shadow side cuts and attributes tracelets by it, ends frames at
     * its per-path max_steps and caps backward branches at its
     * max_backjumps; its other knobs do not apply.
     */
    analysis::SymExecConfig symexec;

    /** Dynamic-only bounds (quiet stops, not traps). */
    int max_call_depth = 24;
    long max_total_steps = 65536; ///< per entry run

    /** Bytes backing a synthesized entry `this` object. */
    std::uint32_t this_object_bytes = 512;

    /**
     * Concrete values substituted for *unset* entry arguments, one
     * entry run per value. toyc lowers opaque branch/loop conditions
     * as reads of an argument slot the caller never sets, so {0, 1}
     * drives both directions of every opaque branch.
     */
    std::vector<std::uint32_t> opaque_values = {0, 1};
};

/** Why execution refused to continue. */
enum class TrapKind : std::uint8_t {
    BadOpcode,       ///< opcode byte is not a bir::Op
    BadRegister,     ///< used register operand >= kNumRegs
    WildJump,        ///< jump target outside the function's slots
    WildCall,        ///< direct call to a non-function, non-stub addr
    CallIndNonEntry, ///< indirect call to a non-function-entry addr
    OobVtableSlot,   ///< dispatch read past the end of a vtable the
                     ///< frame resolved (in-frame vptr store or a
                     ///< constant vtable base)
    Purecall,        ///< reached the _purecall stub
};

inline constexpr int kNumTrapKinds = 7;

/** Stable lowercase name, e.g. "bad-opcode". */
const char* trap_name(TrapKind kind);

/** One refusal, with enough context to locate it. */
struct Trap {
    TrapKind kind = TrapKind::BadOpcode;
    std::uint32_t entry = 0; ///< entry function of the run
    std::uint32_t fn = 0;    ///< function whose body trapped
    std::uint32_t addr = 0;  ///< faulting instruction address
    std::uint32_t detail = 0; ///< target addr / opcode byte / slot

    bool operator==(const Trap&) const = default;
};

/** One emitted tracelet with its provenance (JSONL schema v1 unit). */
struct TraceRecord {
    std::uint32_t entry = 0;  ///< entry function address
    std::uint32_t opaque = 0; ///< opaque-argument value of the run
    std::uint32_t type = 0;   ///< attributed vtable address; 0=untyped
    analysis::Tracelet tracelet;

    bool operator==(const TraceRecord&) const = default;
};

/** Deterministic execution statistics (work items, never timing). */
struct VmStats {
    std::uint64_t entries = 0; ///< entry functions executed
    std::uint64_t runs = 0;    ///< entry x opaque-value runs
    std::uint64_t steps = 0;
    std::uint64_t frames = 0;
    std::uint64_t calls = 0;  ///< frames entered via Call/CallInd
    std::uint64_t allocs = 0; ///< allocator-stub calls
    std::uint64_t skipped_indirect = 0; ///< null-target CallInd skips
    std::uint64_t depth_skips = 0;      ///< calls skipped at depth cap
    std::uint64_t frame_step_stops = 0; ///< frames ended by step cap
    std::uint64_t budget_stops = 0;     ///< runs ended by global cap
    std::uint64_t forced_fallthroughs = 0; ///< backjump-cap refusals
    std::uint64_t shadow_divergences = 0;  ///< shadow-vs-concrete cond
    std::uint64_t wild_reads = 0;  ///< loads outside data/heap (-> 0)
    std::uint64_t wild_writes = 0; ///< stores outside data/heap

    bool operator==(const VmStats&) const = default;
};

/** Everything one run (or a whole-image sweep) observed. */
struct VmResult {
    /** Dynamic tracelets per type, keyed by vtable address. */
    std::map<std::uint32_t, std::vector<analysis::Tracelet>>
        type_tracelets;
    /** Tracelets of this-param objects whose type stayed unknown. */
    std::vector<analysis::Tracelet> untyped_tracelets;
    /** Flat provenance stream, in emission order (JSONL export). */
    std::vector<TraceRecord> records;
    /** Traps, in detection order. */
    std::vector<Trap> traps;
    /** Covered basic blocks (layout-insensitive fingerprints). */
    std::set<std::uint64_t> coverage;
    /** Executed-instruction histogram by opcode. */
    std::array<std::uint64_t, kNumOps> op_counts{};
    VmStats stats;
    /** Concrete return value of the entry frame (run_entry only;
     *  stays 0 in merged whole-image results). */
    std::uint32_t entry_ret = 0;

    bool operator==(const VmResult&) const = default;

    /** Fold @p other in (tracelet/record/trap order preserved). */
    void merge(const VmResult& other);
};

/**
 * Executes one image's functions concretely.
 *
 * Construction decodes every function once (an internally built
 * cfg::CfgCache, or a caller-shared one) and precomputes per-block
 * coverage fingerprints; run_* never decodes.
 */
class Interpreter {
  public:
    /**
     * @param image         the image to execute
     * @param vtables       discovered vtables (scan_vtables order)
     * @param this_callees  functions whose first argument is `this`
     *                      (analysis phase B set: vtable members +
     *                      ctors -- use analysis::this_callee_set),
     *                      in any order
     * @param config        bounds, and the static run's SymExecConfig
     *                      when diffing
     */
    Interpreter(const bir::BinaryImage& image,
                const std::vector<analysis::VTableInfo>& vtables,
                std::vector<std::uint32_t> this_callees,
                const VmConfig& config);

    /** Convenience: vtables + this-callee set from a static result. */
    Interpreter(const bir::BinaryImage& image,
                const analysis::AnalysisResult& analysis,
                const VmConfig& config);

    /**
     * Execute function-table entry @p fn_index once with @p opaque
     * substituted for unset entry arguments. Fresh memory, fresh
     * heap: runs are independent and reorderable.
     */
    VmResult run_entry(std::size_t fn_index,
                       std::uint32_t opaque) const;

    /**
     * Execute every function x every configured opaque value and
     * merge in (function, opaque) order. @p threads as in
     * support::resolve_threads; the merged result is bit-identical
     * for every thread count. Records vm.* counters in rock::obs.
     */
    VmResult run_image(int threads = 1) const;

    const VmConfig& config() const { return config_; }
    const bir::BinaryImage& image() const { return image_; }

    /** All per-function block fingerprints (coverage denominator). */
    std::size_t total_blocks() const;

  private:
    struct Frame;
    struct Machine;

    /** @return false when the run must abort (trap / global budget). */
    bool run_frame(Machine& m, Frame& frame, int depth,
                   std::uint32_t& ret, VmResult& out) const;
    bool enter(Machine& m, Frame& caller,
               const bir::FunctionEntry* fe,
               std::map<int, std::uint32_t> args, int depth,
               VmResult& out) const;

    std::uint32_t load_word(Machine& m, std::uint32_t addr,
                            VmResult& out) const;
    void store_word(Machine& m, std::uint32_t addr, std::uint32_t val,
                    VmResult& out) const;
    std::uint32_t alloc(Machine& m, std::uint32_t size) const;

    const bir::BinaryImage& image_;
    const VmConfig config_;
    analysis::VTableIndex vtables_;
    /** Sorted ascending, distinct. */
    std::vector<std::uint32_t> this_callees_;
    cfg::CfgCache cache_;
    /** Per function-table entry, per block: coverage fingerprint. */
    std::vector<std::vector<std::uint64_t>> fingerprints_;
};

} // namespace rock::vm
