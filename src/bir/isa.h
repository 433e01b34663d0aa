/**
 * @file
 * The VM32 instruction set.
 *
 * VM32 is the synthetic 32-bit ISA this reproduction compiles to and
 * analyzes. It stands in for the paper's x86/MSVC binaries: it has just
 * enough surface to express the artifacts Rock's analyses consume --
 * vtable-pointer stores, field loads/stores, direct and indirect calls,
 * argument passing, and control flow.
 *
 * Every instruction is encoded in exactly 8 bytes:
 *
 *   byte 0      opcode
 *   byte 1..3   register / small operands (a, b, c)
 *   byte 4..7   32-bit little-endian immediate
 *
 * The fixed width keeps decoding trivial while still forcing the
 * analysis layer to work from raw bytes, exactly like a disassembler
 * built on capstone would.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rock::bir {

/** Number of general-purpose registers (r0..r15). */
inline constexpr int kNumRegs = 16;

/** Size of one encoded instruction in bytes. */
inline constexpr std::uint32_t kInstrSize = 8;

/** Size of one pointer/slot in the data section. */
inline constexpr std::uint32_t kWordSize = 4;

/** VM32 opcodes. */
enum class Op : std::uint8_t {
    Nop = 0,
    /** a = imm. Used for constants, vtable addresses, function addrs. */
    MovImm,
    /** a = b. */
    MovReg,
    /** a = mem[b + imm]. */
    Load,
    /** mem[a + imm] = b. */
    Store,
    /** a = b + imm (signed). Pointer adjustment, arithmetic. */
    AddImm,
    /** Direct call to code address imm. */
    Call,
    /** Indirect call to the address held in register a. */
    CallInd,
    /** Outgoing argument slot a = register b. */
    SetArg,
    /** a = incoming argument slot b. */
    GetArg,
    /** a = return value of the most recent call. */
    GetRet,
    /** Return the value in register a. */
    RetVal,
    /** Return with no value. */
    Ret,
    /** Unconditional jump to code address imm. */
    Jmp,
    /** Jump to code address imm when register a is non-zero. */
    Jnz,
    /** Jump to code address imm when register a is zero. */
    Jz,
};

/** A decoded VM32 instruction. */
struct Instr {
    Op op = Op::Nop;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
    std::uint32_t imm = 0;

    bool operator==(const Instr&) const = default;
};

/** Encode @p instr into 8 bytes appended to @p out. */
void encode(const Instr& instr, std::vector<std::uint8_t>& out);

/**
 * Decode one instruction from @p bytes at @p offset.
 *
 * @return std::nullopt when fewer than 8 bytes remain, the opcode
 *         byte is not a valid Op, or a register operand field the op
 *         actually reads/writes names a register >= kNumRegs.
 *         Operand fields the op ignores (e.g. `c` everywhere, `b` of
 *         a Jnz) tolerate arbitrary stale bytes: encode() writes the
 *         Instr fields verbatim and makes no promise about unused
 *         ones, so decode must not reject them.
 */
std::optional<Instr> decode(const std::vector<std::uint8_t>& bytes,
                            std::size_t offset);

/**
 * The registers one instruction reads: at most two, held inline so
 * decoding and the verifier classify operands without the heap.
 * Iterates in operand order (Store: `a`, then `b`).
 */
class RegUses {
  public:
    RegUses() = default;
    RegUses(int r) : regs_{r, 0}, size_(1) {}
    RegUses(int r0, int r1) : regs_{r0, r1}, size_(2) {}

    const int* begin() const { return regs_.data(); }
    const int* end() const { return regs_.data() + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    std::array<int, 2> regs_{};
    std::size_t size_ = 0;
};

/**
 * Register numbers @p instr reads (the `this`/source operands).
 * Non-register small operands -- SetArg's slot index `a`, GetArg's
 * slot index `b` -- are never included.
 */
RegUses reg_uses(const Instr& instr);

/** Register @p instr writes, or -1 when it writes none. */
int reg_def(const Instr& instr);

/**
 * @return true when every register operand field @p instr reads or
 *         writes names a register < kNumRegs (the validity contract
 *         decode() enforces).
 */
bool valid_register_operands(const Instr& instr);

/** @return true for the control-transfer ops Jmp / Jnz / Jz. */
bool is_jump(Op op);

/** @return true for ops that never fall through (Ret, RetVal, Jmp). */
bool is_block_end(Op op);

/** Human-readable mnemonic for @p op. */
std::string op_name(Op op);

/** Disassemble @p instr (no address column). */
std::string to_string(const Instr& instr);

} // namespace rock::bir
