#include "cfg/cfg.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "support/str.h"

namespace rock::cfg {

namespace {

/**
 * Is @p target an instruction-aligned address inside the materialized
 * slot range [fn.addr, @p slots_end)? For a truncated body that range
 * is tighter than [fn.addr, fn.addr + fn.size): jumps into the
 * unmaterialized tail must not become leaders or edges, or the block
 * passes would index past Cfg::slots. The verifier reports such jumps
 * via the truncation diagnostic.
 */
bool
in_materialized(const bir::FunctionEntry& fn, std::uint32_t slots_end,
                std::uint32_t target)
{
    return target >= fn.addr && target < slots_end &&
           (target - fn.addr) % bir::kInstrSize == 0;
}

} // namespace

int
Cfg::block_at(std::uint32_t addr) const
{
    // Blocks tile the slots, so the slot's block is the answer.
    if (addr < func.addr)
        return -1;
    std::size_t slot = (addr - func.addr) / bir::kInstrSize;
    return slot < slot_block.size() ? slot_block[slot] : -1;
}

bool
Cfg::well_formed() const
{
    if (truncated)
        return false;
    for (const auto& slot : slots) {
        if (!slot.instr)
            return false;
    }
    return true;
}

std::vector<int>
Cfg::reachable() const
{
    std::vector<int> out;
    if (blocks.empty())
        return out;
    std::vector<bool> seen(blocks.size(), false);
    std::vector<int> stack{0};
    seen[0] = true;
    while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        for (int s : blocks[static_cast<std::size_t>(b)].succs) {
            if (!seen[static_cast<std::size_t>(s)]) {
                seen[static_cast<std::size_t>(s)] = true;
                stack.push_back(s);
            }
        }
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (seen[b])
            out.push_back(static_cast<int>(b));
    }
    return out;
}

Cfg
build_cfg(const bir::BinaryImage& image, const bir::FunctionEntry& fn)
{
    Cfg cfg;
    cfg.func = fn;

    // Clamp the body to the code section; anything past it (or a
    // trailing sub-instruction fragment) is recorded as truncation.
    std::uint64_t sec_end =
        static_cast<std::uint64_t>(image.code_base) + image.code.size();
    std::uint64_t body_end =
        static_cast<std::uint64_t>(fn.addr) + fn.size;
    if (fn.addr < image.code_base || body_end > sec_end) {
        cfg.truncated = true;
        body_end = std::min<std::uint64_t>(body_end, sec_end);
    }
    std::uint32_t usable =
        body_end > fn.addr
            ? static_cast<std::uint32_t>(body_end - fn.addr)
            : 0;
    if (usable % bir::kInstrSize != 0)
        cfg.truncated = true;
    std::size_t n = usable / bir::kInstrSize;
    std::uint32_t slots_end =
        fn.addr + static_cast<std::uint32_t>(n) * bir::kInstrSize;

    cfg.slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Slot slot;
        slot.addr = fn.addr +
                    static_cast<std::uint32_t>(i) * bir::kInstrSize;
        slot.instr = bir::decode(image.code, slot.addr - image.code_base);
        cfg.slots.push_back(std::move(slot));
    }
    if (n == 0)
        return cfg;

    // Leaders, marked in slot_block (1 = leader) until the block pass
    // below overwrites every entry with its block id.
    cfg.slot_block.assign(n, 0);
    cfg.slot_block[0] = 1;
    std::size_t num_blocks = 1;
    auto mark_leader = [&](std::size_t s) {
        num_blocks += cfg.slot_block[s] == 0;
        cfg.slot_block[s] = 1;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const auto& slot = cfg.slots[i];
        if (!slot.instr)
            continue;
        bir::Op op = slot.instr->op;
        if (bir::is_jump(op) &&
            in_materialized(fn, slots_end, slot.instr->imm))
            mark_leader((slot.instr->imm - fn.addr) / bir::kInstrSize);
        if ((bir::is_jump(op) || bir::is_block_end(op)) && i + 1 < n)
            mark_leader(i + 1);
    }

    // Blocks in address order: each leader opens one, which runs to
    // the next leader or the end of the materialized slots.
    cfg.blocks.reserve(num_blocks);
    for (std::size_t s = 0; s < n; ++s) {
        if (cfg.slot_block[s] != 0) {
            if (!cfg.blocks.empty()) {
                cfg.blocks.back().end = cfg.slots[s].addr;
                cfg.blocks.back().last = static_cast<int>(s);
            }
            BasicBlock block;
            block.start = cfg.slots[s].addr;
            block.first = static_cast<int>(s);
            cfg.blocks.push_back(std::move(block));
        }
        cfg.slot_block[s] = static_cast<int>(cfg.blocks.size()) - 1;
    }
    cfg.blocks.back().end = slots_end;
    cfg.blocks.back().last = static_cast<int>(n);

    // Edges: a block has at most two successors, its jump target and
    // its fallthrough, kept sorted and distinct.
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        BasicBlock& block = cfg.blocks[b];
        std::array<int, 2> succs{};
        std::size_t num_succs = 0;
        const Slot& tail =
            cfg.slots[static_cast<std::size_t>(block.last - 1)];
        bool falls_through = true;
        if (tail.instr) {
            bir::Op op = tail.instr->op;
            if (bir::is_jump(op) &&
                in_materialized(fn, slots_end, tail.instr->imm))
                succs[num_succs++] = cfg.block_at(tail.instr->imm);
            if (bir::is_block_end(op))
                falls_through = false;
            // A jump out of the function transfers control away; a
            // *conditional* one still falls through on the other arm.
        }
        int next = static_cast<int>(b + 1);
        if (falls_through && b + 1 < cfg.blocks.size() &&
            (num_succs == 0 || succs[0] != next))
            succs[num_succs++] = next;
        if (num_succs == 2 && succs[0] > succs[1])
            std::swap(succs[0], succs[1]);
        block.succs.assign(succs.begin(), succs.begin() + num_succs);
    }
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        for (int s : cfg.blocks[b].succs) {
            auto& preds = cfg.blocks[static_cast<std::size_t>(s)].preds;
            if (preds.empty())
                preds.reserve(2); // a join's two arms, one allocation
            preds.push_back(static_cast<int>(b));
        }
    }
    return cfg;
}

std::string
to_dot(const Cfg& cfg, const bir::BinaryImage& image, int cluster_id)
{
    std::ostringstream out;
    std::string prefix =
        support::format("f%x_", cfg.func.addr);
    if (cluster_id >= 0) {
        out << "  subgraph cluster_" << cluster_id << " {\n"
            << "    label=\"" << image.name_of(cfg.func.addr) << " @ "
            << support::hex(cfg.func.addr) << "\";\n";
    } else {
        out << "digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n";
    }
    std::string indent = cluster_id >= 0 ? "    " : "  ";
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        const BasicBlock& block = cfg.blocks[b];
        out << indent << prefix << "b" << b << " [label=\""
            << support::hex(block.start) << ":\\l";
        for (int s = block.first; s < block.last; ++s) {
            const Slot& slot = cfg.slots[static_cast<std::size_t>(s)];
            out << (slot.instr ? bir::to_string(*slot.instr)
                               : std::string("<undecodable>"))
                << "\\l";
        }
        out << "\"];\n";
        for (int s : block.succs) {
            out << indent << prefix << "b" << b << " -> " << prefix
                << "b" << s << ";\n";
        }
    }
    if (cluster_id >= 0)
        out << "  }\n";
    else
        out << "}\n";
    return out.str();
}

std::string
to_dot(const bir::BinaryImage& image)
{
    std::ostringstream out;
    out << "digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n";
    int cluster = 0;
    for (const auto& fn : image.functions)
        out << to_dot(build_cfg(image, fn), image, cluster++);
    out << "}\n";
    return out.str();
}

} // namespace rock::cfg
