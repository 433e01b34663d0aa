/**
 * @file
 * The stock dataflow analyses: reaching definitions and
 * intra-procedural constant propagation over VM32 registers.
 *
 * Both are instances of the framework in cfg/dataflow.h. Block
 * facts are exposed raw (for tests that assert them exactly) next to
 * per-instruction query helpers that re-apply the block transfer up
 * to a slot (the usual two-level scheme: O(blocks) state, O(block
 * length) refinement).
 *
 * Register operand classification (which fields an op reads/writes)
 * comes from bir::reg_uses / bir::reg_def, the same contract
 * bir::decode enforces.
 */
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "cfg/dataflow.h"

namespace rock::cfg {

/** Pseudo-definition site: "uninitialized at function entry". */
inline constexpr int kUninitDef = -1;

/** Reaching-defs lattice value: per-register sets of def sites. */
struct RegDefs {
    /** Def sites per register: slot indices, or kUninitDef. */
    std::array<std::set<int>, bir::kNumRegs> defs;

    bool operator==(const RegDefs&) const = default;
};

/** Solved reaching definitions of one function. */
struct ReachingDefs {
    /** Per block: in = at block entry, out = at block exit. */
    std::vector<BlockFacts<RegDefs>> facts;

    /**
     * Def sites of @p reg that reach slot @p slot, *before* the slot
     * executes. Contains kUninitDef when some path from the function
     * entry reaches the slot without defining @p reg.
     */
    std::set<int> reaching(const Cfg& cfg, int slot, int reg) const;
};

/**
 * May-analysis: a def site d of register r reaches a point when some
 * path from d to the point exists along which r is not redefined.
 * Every register starts with the kUninitDef pseudo-def at entry.
 */
ReachingDefs reaching_definitions(const Cfg& cfg);

/** Constant-propagation lattice value for one register. */
struct ConstVal {
    enum Kind : std::uint8_t {
        Undef,    ///< no value seen yet (lattice top)
        Const,    ///< provably the single value `value`
        NonConst, ///< more than one value possible (lattice bottom)
    };
    Kind kind = Undef;
    std::uint32_t value = 0;

    bool operator==(const ConstVal&) const = default;

    static ConstVal constant(std::uint32_t v)
    {
        return {Const, v};
    }
    static ConstVal nonconst()
    {
        return {NonConst, 0};
    }
};

/** Constant-propagation lattice value: one ConstVal per register. */
struct RegConsts {
    std::array<ConstVal, bir::kNumRegs> regs;

    bool operator==(const RegConsts&) const = default;
};

/** Solved constant propagation of one function. */
struct ConstProp {
    std::vector<BlockFacts<RegConsts>> facts;

    /** Value of @p reg immediately before slot @p slot executes. */
    ConstVal value_at(const Cfg& cfg, int slot, int reg) const;
};

/**
 * Intra-procedural sparse conditional-free constant propagation:
 * MovImm introduces constants, MovReg/AddImm propagate them,
 * Load/GetArg/GetRet clobber to NonConst. Branches are not pruned.
 */
ConstProp constant_propagation(const Cfg& cfg);

/** As above, sweeping @p order (computed for @p cfg) into @p out,
 *  whose buffer is reused. */
void constant_propagation(const Cfg& cfg, const BlockOrder& order,
                          ConstProp& out);

} // namespace rock::cfg
