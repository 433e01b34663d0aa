#include "cfg/analyses.h"

namespace rock::cfg {

namespace {

/** Apply one slot's effect to a RegDefs value. */
void
apply_defs(const Slot& slot, int index, RegDefs& value)
{
    if (!slot.instr)
        return; // opaque slot: no known effect
    int def = bir::reg_def(*slot.instr);
    if (def >= 0)
        value.defs[static_cast<std::size_t>(def)] = {index};
}

struct ReachingProblem {
    using Domain = RegDefs;
    const Cfg& cfg;

    Domain boundary() const
    {
        Domain d;
        for (auto& site : d.defs)
            site = {kUninitDef};
        return d;
    }
    Domain top() const
    {
        return {};
    }
    void meet(Domain& into, const Domain& from) const
    {
        for (std::size_t r = 0; r < into.defs.size(); ++r)
            into.defs[r].insert(from.defs[r].begin(),
                                from.defs[r].end());
    }
    Domain transfer(const Cfg& graph, int block, Domain in) const
    {
        const BasicBlock& bb =
            graph.blocks[static_cast<std::size_t>(block)];
        for (int s = bb.first; s < bb.last; ++s)
            apply_defs(graph.slots[static_cast<std::size_t>(s)], s, in);
        return in;
    }
};

/** Apply one slot's effect to a RegConsts value. */
void
apply_consts(const Slot& slot, RegConsts& value)
{
    if (!slot.instr)
        return;
    const bir::Instr& instr = *slot.instr;
    switch (instr.op) {
      case bir::Op::MovImm:
        value.regs[instr.a] = ConstVal::constant(instr.imm);
        break;
      case bir::Op::MovReg:
        value.regs[instr.a] = value.regs[instr.b];
        break;
      case bir::Op::AddImm: {
        const ConstVal& src = value.regs[instr.b];
        value.regs[instr.a] =
            src.kind == ConstVal::Const
                ? ConstVal::constant(src.value + instr.imm)
                : src;
        break;
      }
      default: {
        int def = bir::reg_def(instr);
        if (def >= 0)
            value.regs[static_cast<std::size_t>(def)] =
                ConstVal::nonconst();
        break;
      }
    }
}

struct ConstPropProblem {
    using Domain = RegConsts;

    Domain boundary() const { return {}; } // all Undef at entry
    Domain top() const { return {}; }
    void meet(Domain& into, const Domain& from) const
    {
        for (std::size_t r = 0; r < into.regs.size(); ++r) {
            ConstVal& a = into.regs[r];
            const ConstVal& b = from.regs[r];
            if (b.kind == ConstVal::Undef)
                continue;
            if (a.kind == ConstVal::Undef)
                a = b;
            else if (a.kind == ConstVal::Const &&
                     (b.kind != ConstVal::Const || b.value != a.value))
                a = ConstVal::nonconst();
        }
    }
    Domain transfer(const Cfg& graph, int block, Domain in) const
    {
        const BasicBlock& bb =
            graph.blocks[static_cast<std::size_t>(block)];
        for (int s = bb.first; s < bb.last; ++s)
            apply_consts(graph.slots[static_cast<std::size_t>(s)], in);
        return in;
    }
};

} // namespace

std::set<int>
ReachingDefs::reaching(const Cfg& cfg, int slot, int reg) const
{
    int block = cfg.slot_block[static_cast<std::size_t>(slot)];
    RegDefs value = facts[static_cast<std::size_t>(block)].in;
    const BasicBlock& bb = cfg.blocks[static_cast<std::size_t>(block)];
    for (int s = bb.first; s < slot; ++s)
        apply_defs(cfg.slots[static_cast<std::size_t>(s)], s, value);
    return value.defs[static_cast<std::size_t>(reg)];
}

ReachingDefs
reaching_definitions(const Cfg& cfg)
{
    ReachingProblem problem{cfg};
    return ReachingDefs{solve(cfg, problem)};
}

ConstVal
ConstProp::value_at(const Cfg& cfg, int slot, int reg) const
{
    int block = cfg.slot_block[static_cast<std::size_t>(slot)];
    RegConsts value = facts[static_cast<std::size_t>(block)].in;
    const BasicBlock& bb = cfg.blocks[static_cast<std::size_t>(block)];
    for (int s = bb.first; s < slot; ++s)
        apply_consts(cfg.slots[static_cast<std::size_t>(s)], value);
    return value.regs[static_cast<std::size_t>(reg)];
}

ConstProp
constant_propagation(const Cfg& cfg)
{
    ConstPropProblem problem;
    return ConstProp{solve(cfg, problem)};
}

void
constant_propagation(const Cfg& cfg, const BlockOrder& order,
                     ConstProp& out)
{
    solve(cfg, ConstPropProblem{}, order.order(), out.facts);
}

} // namespace rock::cfg
