#include "cfg/verify.h"

#include <algorithm>
#include <array>
#include <compare>

#include "cfg/analyses.h"
#include "cfg/cfg_cache.h"
#include "obs/metrics.h"
#include "support/str.h"

namespace rock::cfg {

namespace {

using support::format;
using support::hex;

/**
 * Field-extract a slot's raw bytes without any validity checking --
 * the permissive twin of bir::decode, used to tell *why* a slot was
 * rejected (bad opcode vs bad register field).
 */
/**
 * Can kInstrSize raw bytes be read at @p addr? build_cfg materializes
 * slots below code_base for entries whose addr precedes the section
 * (decode refuses them), so the raw helpers below must not assume the
 * offset is in range: the uint32 subtraction would wrap.
 */
bool
raw_readable(const bir::BinaryImage& image, std::uint32_t addr)
{
    if (!image.in_code(addr))
        return false;
    std::size_t off = addr - image.code_base;
    return off + bir::kInstrSize <= image.code.size();
}

bir::Instr
raw_extract(const bir::BinaryImage& image, std::uint32_t addr)
{
    std::size_t off = addr - image.code_base;
    bir::Instr instr;
    instr.op = static_cast<bir::Op>(image.code[off]);
    instr.a = image.code[off + 1];
    instr.b = image.code[off + 2];
    instr.c = image.code[off + 3];
    instr.imm = static_cast<std::uint32_t>(image.code[off + 4]) |
                (static_cast<std::uint32_t>(image.code[off + 5]) << 8) |
                (static_cast<std::uint32_t>(image.code[off + 6]) << 16) |
                (static_cast<std::uint32_t>(image.code[off + 7]) << 24);
    return instr;
}

bool
valid_opcode(const bir::BinaryImage& image, std::uint32_t addr)
{
    return image.code[addr - image.code_base] <=
           static_cast<std::uint8_t>(bir::Op::Jz);
}

bool
aligned(const bir::BinaryImage& image, std::uint32_t target)
{
    return (target - image.code_base) % bir::kInstrSize == 0;
}

/** Forward must-analysis: has a call definitely executed by here? */
struct CallSeenProblem {
    using Domain = bool;

    Domain boundary() const { return false; }
    Domain top() const { return true; } // meet identity for AND
    void meet(Domain& into, const Domain& from) const
    {
        into = into && from;
    }
    Domain transfer(const Cfg& graph, int block, Domain in) const
    {
        const BasicBlock& bb =
            graph.blocks[static_cast<std::size_t>(block)];
        for (int s = bb.first; s < bb.last; ++s) {
            const auto& instr =
                graph.slots[static_cast<std::size_t>(s)].instr;
            if (instr && (instr->op == bir::Op::Call ||
                          instr->op == bir::Op::CallInd))
                return true;
        }
        return in;
    }
};

/**
 * Forward may-analysis: per register, has ANY definition executed on
 * some path from the entry? One bit per register.
 *
 * This is the exact predicate the verifier needs from reaching
 * definitions: every def site is "real", and the kUninitDef pseudo-def
 * seeds every register at entry, so for a slot in a reachable block
 *
 *   reaching(r) == {kUninitDef}  <=>  no path to the slot defines r
 *                                <=>  ever-defined bit of r is clear.
 *
 * The full ReachingDefs (cfg/analyses.h) keeps a std::set of def
 * sites per register per block; on lint-clean images the verifier was
 * spending most of its time building those sets only to ask this one
 * boolean. Two machine words per block answer it instead.
 */
struct EverDefinedProblem {
    using Domain = std::uint32_t; // bit r: some def of r reached here

    Domain boundary() const { return 0; }
    Domain top() const { return 0; }
    void meet(Domain& into, const Domain& from) const { into |= from; }
    Domain transfer(const Cfg& graph, int block, Domain in) const
    {
        const BasicBlock& bb =
            graph.blocks[static_cast<std::size_t>(block)];
        for (int s = bb.first; s < bb.last; ++s) {
            const auto& instr =
                graph.slots[static_cast<std::size_t>(s)].instr;
            if (!instr)
                continue; // opaque slot: no known effect
            int def = bir::reg_def(*instr);
            if (def >= 0)
                in |= 1u << def;
        }
        return in;
    }
};

static_assert(bir::kNumRegs <= 32,
              "register sets pack one bit per register");

void
check_transfers(const bir::BinaryImage& image, const Cfg& cfg,
                const Slot& slot, std::vector<Diagnostic>& out)
{
    const bir::Instr& instr = *slot.instr;
    const bir::FunctionEntry& fn = cfg.func;
    auto diag = [&](DiagKind kind, std::string detail) {
        out.push_back(
            {kind, fn.addr, slot.addr, std::move(detail)});
    };

    if (bir::is_jump(instr.op)) {
        std::uint32_t target = instr.imm;
        if (!image.in_code(target)) {
            diag(DiagKind::TargetOutOfCode,
                 format("%s target %s is outside the code section",
                        bir::op_name(instr.op).c_str(),
                        hex(target).c_str()));
        } else if (!aligned(image, target)) {
            diag(DiagKind::TargetMisaligned,
                 format("%s target %s is not %u-byte aligned",
                        bir::op_name(instr.op).c_str(),
                        hex(target).c_str(), bir::kInstrSize));
        } else if (target < fn.addr || target >= fn.addr + fn.size) {
            diag(DiagKind::JumpEscapesFunction,
                 format("%s target %s escapes the containing "
                        "function [%s, %s)",
                        bir::op_name(instr.op).c_str(),
                        hex(target).c_str(), hex(fn.addr).c_str(),
                        hex(fn.addr + fn.size).c_str()));
        }
    } else if (instr.op == bir::Op::Call) {
        std::uint32_t target = instr.imm;
        if (target == bir::kAllocStub || target == bir::kPurecallStub)
            return; // imported runtime stubs are valid callees
        if (!image.in_code(target)) {
            diag(DiagKind::TargetOutOfCode,
                 format("call target %s is outside the code section",
                        hex(target).c_str()));
        } else if (!aligned(image, target)) {
            diag(DiagKind::TargetMisaligned,
                 format("call target %s is not %u-byte aligned",
                        hex(target).c_str(), bir::kInstrSize));
        } else if (!image.is_function_start(target)) {
            diag(DiagKind::CallNotFunctionEntry,
                 format("call target %s is not a function entry",
                        hex(target).c_str()));
        }
    }
}

/** A stored vtable-pointer candidate: a data address one function
 *  materializes and stores (the signature analysis::scan_vtables
 *  matches), with that function's table index. */
struct VtableCandidate {
    std::uint32_t addr = 0;
    std::size_t function = 0;

    auto operator<=>(const VtableCandidate&) const = default;
};

/** Append the addresses @p cfg materializes and stores to @p out. */
void
collect_vtable_candidates(const bir::BinaryImage& image, const Cfg& cfg,
                          std::size_t function,
                          std::vector<VtableCandidate>& out)
{
    std::uint32_t stored_regs = 0; // one bit per register
    for (const Slot& slot : cfg.slots) {
        if (slot.instr && slot.instr->op == bir::Op::Store)
            stored_regs |= 1u << slot.instr->b;
    }
    for (const Slot& slot : cfg.slots) {
        if (slot.instr && slot.instr->op == bir::Op::MovImm &&
            image.in_data(slot.instr->imm) &&
            ((stored_regs >> slot.instr->a) & 1u))
            out.push_back({slot.instr->imm, function});
    }
}

/** One worker's verifier buffers, reused from function to function:
 *  the block order and the dataflow facts of the three solves. */
struct VerifyScratch {
    BlockOrder order;
    std::vector<BlockFacts<std::uint32_t>> ever_defined;
    std::vector<BlockFacts<bool>> call_seen;
    ConstProp consts;
};

} // namespace

const char*
diag_name(DiagKind kind)
{
    switch (kind) {
      case DiagKind::Undecodable: return "undecodable";
      case DiagKind::BadRegister: return "bad-register";
      case DiagKind::TargetOutOfCode: return "target-out-of-code";
      case DiagKind::TargetMisaligned: return "target-misaligned";
      case DiagKind::JumpEscapesFunction:
        return "jump-escapes-function";
      case DiagKind::CallNotFunctionEntry:
        return "call-not-function-entry";
      case DiagKind::CallIndUndefined: return "callind-undefined";
      case DiagKind::GetRetNoCall: return "getret-no-call";
      case DiagKind::UseWithoutDef: return "use-without-def";
      case DiagKind::VtableSlotInvalid: return "vtable-slot-invalid";
      case DiagKind::UnreachableBlock: return "unreachable-block";
      case DiagKind::SubtypeInconsistent: return "subtype-inconsistent";
    }
    return "?";
}

std::string
to_string(const Diagnostic& diag)
{
    return format("%s: [%s] %s", hex(diag.addr).c_str(),
                  diag_name(diag.kind), diag.detail.c_str());
}

namespace {

/**
 * verify_function over an already-recovered CFG. verify_image feeds
 * CFGs from a shared CfgCache, so each function's CFG is built
 * exactly once per image regardless of how many stages consume it.
 */
std::vector<Diagnostic>
verify_function_impl(const bir::BinaryImage& image, const Cfg& cfg,
                     VerifyScratch& scratch)
{
    std::vector<Diagnostic> out;
    const bir::FunctionEntry& fn = cfg.func;

    if (cfg.truncated) {
        out.push_back(
            {DiagKind::Undecodable, fn.addr,
             fn.addr + static_cast<std::uint32_t>(cfg.slots.size()) *
                           bir::kInstrSize,
             format("function body of %u bytes is truncated (not a "
                    "multiple of %u or past the code section)",
                    fn.size, bir::kInstrSize)});
    }

    // Decode failures, split into bad-opcode vs bad-register-field.
    for (const Slot& slot : cfg.slots) {
        if (slot.instr)
            continue;
        if (!raw_readable(image, slot.addr)) {
            out.push_back(
                {DiagKind::Undecodable, fn.addr, slot.addr,
                 format("instruction slot at %s lies outside the "
                        "code section",
                        hex(slot.addr).c_str())});
            continue;
        }
        if (!valid_opcode(image, slot.addr)) {
            out.push_back(
                {DiagKind::Undecodable, fn.addr, slot.addr,
                 format("opcode byte 0x%02x decodes to no "
                        "instruction",
                        image.code[slot.addr - image.code_base])});
            continue;
        }
        bir::Instr raw = raw_extract(image, slot.addr);
        for (int r : bir::reg_uses(raw)) {
            if (r >= bir::kNumRegs)
                out.push_back(
                    {DiagKind::BadRegister, fn.addr, slot.addr,
                     format("%s reads register %d (>= %d)",
                            bir::op_name(raw.op).c_str(), r,
                            bir::kNumRegs)});
        }
        if (bir::reg_def(raw) >= bir::kNumRegs)
            out.push_back(
                {DiagKind::BadRegister, fn.addr, slot.addr,
                 format("%s writes register %d (>= %d)",
                        bir::op_name(raw.op).c_str(),
                        bir::reg_def(raw), bir::kNumRegs)});
    }

    if (cfg.blocks.empty()) {
        std::sort(out.begin(), out.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                      return std::tie(a.addr, a.kind, a.detail) <
                             std::tie(b.addr, b.kind, b.detail);
                  });
        return out;
    }

    const BlockOrder& order = scratch.order;
    scratch.order.compute(cfg);
    solve(cfg, EverDefinedProblem{}, order.order(),
          scratch.ever_defined);
    solve(cfg, CallSeenProblem{}, order.order(), scratch.call_seen);
    const auto& ever_defined = scratch.ever_defined;
    const auto& call_seen = scratch.call_seen;
    // Constants matter only to an icall through a defined register:
    // propagate them on the first one.
    bool consts_solved = false;

    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        const BasicBlock& block = cfg.blocks[b];
        if (!order.reachable(static_cast<int>(b))) {
            out.push_back(
                {DiagKind::UnreachableBlock, fn.addr, block.start,
                 format("block [%s, %s) is unreachable from the "
                        "function entry",
                        hex(block.start).c_str(),
                        hex(block.end).c_str())});
            continue; // dataflow facts are vacuous on dead code
        }
        bool call_before = call_seen[b].in;
        std::uint32_t defined = ever_defined[b].in;
        for (int s = block.first; s < block.last; ++s) {
            const Slot& slot = cfg.slots[static_cast<std::size_t>(s)];
            if (!slot.instr) {
                call_before = false; // opaque: be conservative below
                continue;
            }
            const bir::Instr& instr = *slot.instr;
            check_transfers(image, cfg, slot, out);

            if (instr.op == bir::Op::CallInd) {
                if (!((defined >> instr.a) & 1u)) {
                    out.push_back(
                        {DiagKind::CallIndUndefined, fn.addr,
                         slot.addr,
                         format("icall through r%d, which is never "
                                "defined on any path",
                                instr.a)});
                } else {
                    if (!consts_solved) {
                        constant_propagation(cfg, order,
                                             scratch.consts);
                        consts_solved = true;
                    }
                    ConstVal val =
                        scratch.consts.value_at(cfg, s, instr.a);
                    if (val.kind == ConstVal::Const &&
                        !image.is_function_start(val.value)) {
                        out.push_back(
                            {DiagKind::CallIndUndefined, fn.addr,
                             slot.addr,
                             format("icall through r%d, provably %s, "
                                    "which is not a function entry",
                                    instr.a,
                                    hex(val.value).c_str())});
                    }
                }
            } else {
                for (int r : bir::reg_uses(instr)) {
                    if (!((defined >> r) & 1u)) {
                        out.push_back(
                            {DiagKind::UseWithoutDef, fn.addr,
                             slot.addr,
                             format("%s reads r%d, which has no "
                                    "reaching definition",
                                    bir::op_name(instr.op).c_str(),
                                    r)});
                    }
                }
            }
            int def = bir::reg_def(instr);
            if (def >= 0)
                defined |= 1u << def;

            if (instr.op == bir::Op::GetRet && !call_before) {
                out.push_back(
                    {DiagKind::GetRetNoCall, fn.addr, slot.addr,
                     format("getret r%d with no call on some path "
                            "from the function entry",
                            instr.a)});
            }
            if (instr.op == bir::Op::Call ||
                instr.op == bir::Op::CallInd)
                call_before = true;
        }
    }

    std::sort(out.begin(), out.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  return std::tie(a.addr, a.kind, a.detail) <
                         std::tie(b.addr, b.kind, b.detail);
              });
    return out;
}

} // namespace

std::vector<Diagnostic>
verify_function(const bir::BinaryImage& image,
                const bir::FunctionEntry& fn)
{
    Cfg cfg = build_cfg(image, fn);
    VerifyScratch scratch;
    return verify_function_impl(image, cfg, scratch);
}

std::vector<Diagnostic>
verify_image(const bir::BinaryImage& image, support::ThreadPool& pool,
             CfgCache& cache)
{
    cache.build_all(pool);

    // Per-function lints: one slot per function, merged in table
    // order so the result is independent of the worker count.
    // Chunked by instruction count: lint cost is roughly linear in it,
    // so one huge function no longer pins the sweep to a single
    // worker's pace. Each worker reuses one set of dataflow buffers.
    std::vector<std::vector<Diagnostic>> per_function(
        image.functions.size());
    support::ChunkPlan plan;
    plan.costs = cache.costs().data();
    pool.parallel_for(image.functions.size(), plan, [&](std::size_t f) {
        thread_local VerifyScratch scratch;
        per_function[f] = verify_function_impl(image, cache.at(f), scratch);
    });
    std::vector<Diagnostic> out;
    for (auto& diags : per_function)
        out.insert(out.end(),
                   std::make_move_iterator(diags.begin()),
                   std::make_move_iterator(diags.end()));

    // Image-level lint: every address a function materializes and
    // stores (the vtable-pointer signature, matching
    // analysis::scan_vtables) must lead with a function entry. One
    // finding per address, anchored to the first storing function in
    // table order.
    std::vector<VtableCandidate> candidates;
    for (std::size_t f = 0; f < cache.size(); ++f)
        collect_vtable_candidates(image, cache.at(f), f, candidates);
    std::sort(candidates.begin(), candidates.end());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        std::uint32_t addr = candidates[i].addr;
        if (i > 0 && candidates[i - 1].addr == addr)
            continue;
        std::uint32_t func =
            image.functions[candidates[i].function].addr;
        std::optional<std::uint32_t> slot0 = image.read_data_word(addr);
        if (!slot0) {
            out.push_back(
                {DiagKind::VtableSlotInvalid, func, addr,
                 format("stored vtable pointer %s has no readable "
                        "slot 0",
                        hex(addr).c_str())});
        } else if (!image.is_function_start(*slot0)) {
            out.push_back(
                {DiagKind::VtableSlotInvalid, func, addr,
                 format("vtable %s slot 0 holds %s, which is not a "
                        "function entry",
                        hex(addr).c_str(), hex(*slot0).c_str())});
        }
    }

    // Verifier telemetry: function count and findings by kind (pure
    // functions of the image -- deterministic counters).
    obs::Registry& reg = obs::Registry::global();
    reg.counter("verify.functions").add(image.functions.size());
    reg.counter("verify.diagnostics").add(out.size());
    std::array<std::uint64_t,
               static_cast<std::size_t>(DiagKind::SubtypeInconsistent) + 1>
        by_kind{};
    for (const Diagnostic& diag : out)
        ++by_kind[static_cast<std::size_t>(diag.kind)];
    for (std::size_t kind = 0; kind < by_kind.size(); ++kind) {
        if (by_kind[kind] == 0)
            continue;
        reg.counter(std::string("verify.diagnostics.") +
                    diag_name(static_cast<DiagKind>(kind)))
            .add(by_kind[kind]);
    }
    return out;
}

std::vector<Diagnostic>
verify_image(const bir::BinaryImage& image, support::ThreadPool& pool)
{
    CfgCache cache(image);
    return verify_image(image, pool, cache);
}

std::vector<Diagnostic>
verify_image(const bir::BinaryImage& image, int threads)
{
    support::ThreadPool pool(support::resolve_threads(threads));
    return verify_image(image, pool);
}

} // namespace rock::cfg
