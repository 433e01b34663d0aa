#include "bir/isa.h"

#include "support/str.h"

namespace rock::bir {

namespace {

constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(Op::Jz);

} // namespace

void
encode(const Instr& instr, std::vector<std::uint8_t>& out)
{
    out.push_back(static_cast<std::uint8_t>(instr.op));
    out.push_back(instr.a);
    out.push_back(instr.b);
    out.push_back(instr.c);
    out.push_back(static_cast<std::uint8_t>(instr.imm & 0xff));
    out.push_back(static_cast<std::uint8_t>((instr.imm >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((instr.imm >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((instr.imm >> 24) & 0xff));
}

std::optional<Instr>
decode(const std::vector<std::uint8_t>& bytes, std::size_t offset)
{
    if (offset + kInstrSize > bytes.size())
        return std::nullopt;
    if (bytes[offset] > kMaxOp)
        return std::nullopt;
    Instr instr;
    instr.op = static_cast<Op>(bytes[offset]);
    instr.a = bytes[offset + 1];
    instr.b = bytes[offset + 2];
    instr.c = bytes[offset + 3];
    instr.imm = static_cast<std::uint32_t>(bytes[offset + 4]) |
                (static_cast<std::uint32_t>(bytes[offset + 5]) << 8) |
                (static_cast<std::uint32_t>(bytes[offset + 6]) << 16) |
                (static_cast<std::uint32_t>(bytes[offset + 7]) << 24);
    if (!valid_register_operands(instr))
        return std::nullopt;
    return instr;
}

RegUses
reg_uses(const Instr& instr)
{
    switch (instr.op) {
      case Op::MovReg:
      case Op::Load:
        return {instr.b};
      case Op::Store:
        return {instr.a, instr.b};
      case Op::AddImm:
        return {instr.b};
      case Op::CallInd:
      case Op::RetVal:
      case Op::Jnz:
      case Op::Jz:
        return {instr.a};
      case Op::SetArg:
        return {instr.b}; // `a` is an argument slot, not a register
      default:
        return {};
    }
}

int
reg_def(const Instr& instr)
{
    switch (instr.op) {
      case Op::MovImm:
      case Op::MovReg:
      case Op::Load:
      case Op::AddImm:
      case Op::GetArg: // `b` is an argument slot, not a register
      case Op::GetRet:
        return instr.a;
      default:
        return -1;
    }
}

bool
valid_register_operands(const Instr& instr)
{
    for (int r : reg_uses(instr)) {
        if (r >= kNumRegs)
            return false;
    }
    return reg_def(instr) < kNumRegs; // -1 (no def) is always fine
}

bool
is_jump(Op op)
{
    return op == Op::Jmp || op == Op::Jnz || op == Op::Jz;
}

bool
is_block_end(Op op)
{
    return op == Op::Ret || op == Op::RetVal || op == Op::Jmp;
}

std::string
op_name(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::MovImm: return "movi";
      case Op::MovReg: return "mov";
      case Op::Load: return "load";
      case Op::Store: return "store";
      case Op::AddImm: return "add";
      case Op::Call: return "call";
      case Op::CallInd: return "icall";
      case Op::SetArg: return "setarg";
      case Op::GetArg: return "getarg";
      case Op::GetRet: return "getret";
      case Op::RetVal: return "retval";
      case Op::Ret: return "ret";
      case Op::Jmp: return "jmp";
      case Op::Jnz: return "jnz";
      case Op::Jz: return "jz";
    }
    return "?";
}

std::string
to_string(const Instr& instr)
{
    using support::format;
    switch (instr.op) {
      case Op::Nop:
        return "nop";
      case Op::MovImm:
        return format("movi r%d, 0x%x", instr.a, instr.imm);
      case Op::MovReg:
        return format("mov r%d, r%d", instr.a, instr.b);
      case Op::Load:
        return format("load r%d, [r%d+%d]", instr.a, instr.b,
                      static_cast<std::int32_t>(instr.imm));
      case Op::Store:
        return format("store [r%d+%d], r%d", instr.a,
                      static_cast<std::int32_t>(instr.imm), instr.b);
      case Op::AddImm:
        return format("add r%d, r%d, %d", instr.a, instr.b,
                      static_cast<std::int32_t>(instr.imm));
      case Op::Call:
        return format("call 0x%x", instr.imm);
      case Op::CallInd:
        return format("icall r%d", instr.a);
      case Op::SetArg:
        return format("setarg %d, r%d", instr.a, instr.b);
      case Op::GetArg:
        return format("getarg r%d, %d", instr.a, instr.b);
      case Op::GetRet:
        return format("getret r%d", instr.a);
      case Op::RetVal:
        return format("retval r%d", instr.a);
      case Op::Ret:
        return "ret";
      case Op::Jmp:
        return format("jmp 0x%x", instr.imm);
      case Op::Jnz:
        return format("jnz r%d, 0x%x", instr.a, instr.imm);
      case Op::Jz:
        return format("jz r%d, 0x%x", instr.a, instr.imm);
    }
    return "?";
}

} // namespace rock::bir
