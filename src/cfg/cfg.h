/**
 * @file
 * Basic-block control-flow-graph recovery for VM32 functions.
 *
 * Rock's behavioral analysis (paper Sections 3-4) walks raw bytes
 * path by path; this layer recovers the classical static structure
 * underneath it -- basic blocks, edges, dataflow facts --
 * the substrate mature binary type-recovery systems (TIE, retypd,
 * BinSub) are built on. Everything here is strictly intra-procedural,
 * so recovery cost stays linear in the number of functions, matching
 * the paper's scalability argument.
 *
 * VM32 is fixed-width (kInstrSize bytes per instruction), so every
 * slot of a function body decodes independently: an undecodable slot
 * never desynchronizes the stream. Recovery is therefore total -- it
 * produces a best-effort CFG for arbitrarily corrupted bodies and
 * records what failed to decode for the verifier (cfg/verify.h).
 *
 * Leader rules:
 *  - the function entry,
 *  - the target of every instruction-aligned Jmp/Jnz/Jz landing in
 *    the materialized slot range (for a truncated body that is
 *    tighter than the claimed [addr, addr + size)),
 *  - the slot following any Jmp/Jnz/Jz/Ret/RetVal.
 *
 * Edge rules:
 *  - Jmp: one edge to its target (when in-function and aligned);
 *  - Jnz/Jz: target edge (same condition) plus fallthrough;
 *  - Ret/RetVal: no successors;
 *  - everything else, including Call/CallInd and undecodable slots:
 *    fallthrough. Calls return, and treating a corrupt slot as opaque
 *    keeps the reachable region maximal (fewer cascading diagnostics).
 *
 * Jumps whose target is out-of-function, misaligned, or in the
 * unmaterialized tail of a truncated body contribute no edge; the
 * verifier reports them.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bir/image.h"
#include "bir/isa.h"

namespace rock::cfg {

/** One instruction slot of a function body. */
struct Slot {
    std::uint32_t addr = 0;
    /** Decoded instruction; nullopt when the bytes do not decode
     *  (bad opcode, register operand >= kNumRegs, truncated tail). */
    std::optional<bir::Instr> instr;
};

/** One basic block: a maximal single-entry straight-line run. */
struct BasicBlock {
    /** Address of the first instruction. */
    std::uint32_t start = 0;
    /** One past the last instruction (start of the next block). */
    std::uint32_t end = 0;
    /** Slot index range [first, last) into Cfg::slots. */
    int first = 0;
    int last = 0;
    /** Successor / predecessor block ids, sorted ascending. */
    std::vector<int> succs;
    std::vector<int> preds;
};

/** The recovered control-flow graph of one function. */
struct Cfg {
    bir::FunctionEntry func;
    /** Every kInstrSize-byte slot of the body, in address order. */
    std::vector<Slot> slots;
    /** Blocks in address order; block 0 (when present) is the entry. */
    std::vector<BasicBlock> blocks;
    /** Slot index -> containing block id. */
    std::vector<int> slot_block;
    /**
     * True when the function's byte size is not a multiple of
     * kInstrSize (the trailing fragment is not represented as a
     * slot) or the body extends past the code section.
     */
    bool truncated = false;

    /** Block whose range contains @p addr, or -1. */
    int block_at(std::uint32_t addr) const;

    /** True when every slot decoded and nothing was truncated. */
    bool well_formed() const;

    /** Blocks reachable from the entry block (ids, ascending). */
    std::vector<int> reachable() const;
};

/**
 * Recover the CFG of @p fn. Total: never throws on corrupt bodies
 * (contrast BinaryImage::decode_function, which is fatal on them).
 */
Cfg build_cfg(const bir::BinaryImage& image,
              const bir::FunctionEntry& fn);

/**
 * Render @p cfg as a GraphViz digraph body (one `subgraph cluster`
 * per call when @p cluster_id >= 0, else a standalone `digraph`).
 * Block labels carry addresses and disassembly.
 */
std::string to_dot(const Cfg& cfg, const bir::BinaryImage& image,
                   int cluster_id = -1);

/** Whole-image DOT listing: one cluster per function. */
std::string to_dot(const bir::BinaryImage& image);

} // namespace rock::cfg
