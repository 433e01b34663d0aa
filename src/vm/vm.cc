#include "vm/vm.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/parallel.h"
#include "vm/coverage.h"

namespace rock::vm {

using analysis::Tracelet;
using bir::Instr;
using bir::Op;

namespace {

/** Base of the bump-allocated heap (above any data section). */
constexpr std::uint32_t kHeapBase = 0x40000000;

} // namespace

const char*
trap_name(TrapKind kind)
{
    switch (kind) {
      case TrapKind::BadOpcode: return "bad-opcode";
      case TrapKind::BadRegister: return "bad-register";
      case TrapKind::WildJump: return "wild-jump";
      case TrapKind::WildCall: return "wild-call";
      case TrapKind::CallIndNonEntry: return "callind-non-entry";
      case TrapKind::OobVtableSlot: return "oob-vtable-slot";
      case TrapKind::Purecall: return "purecall";
    }
    return "unknown";
}

void
VmResult::merge(const VmResult& other)
{
    for (const auto& [type, tl] : other.type_tracelets) {
        auto& out = type_tracelets[type];
        out.insert(out.end(), tl.begin(), tl.end());
    }
    untyped_tracelets.insert(untyped_tracelets.end(),
                             other.untyped_tracelets.begin(),
                             other.untyped_tracelets.end());
    records.insert(records.end(), other.records.begin(),
                   other.records.end());
    traps.insert(traps.end(), other.traps.begin(), other.traps.end());
    coverage.insert(other.coverage.begin(), other.coverage.end());
    for (std::size_t i = 0; i < kNumOps; ++i)
        op_counts[i] += other.op_counts[i];
    stats.entries += other.stats.entries;
    stats.runs += other.stats.runs;
    stats.steps += other.stats.steps;
    stats.frames += other.stats.frames;
    stats.calls += other.stats.calls;
    stats.allocs += other.stats.allocs;
    stats.skipped_indirect += other.stats.skipped_indirect;
    stats.depth_skips += other.stats.depth_skips;
    stats.frame_step_stops += other.stats.frame_step_stops;
    stats.budget_stops += other.stats.budget_stops;
    stats.forced_fallthroughs += other.stats.forced_fallthroughs;
    stats.shadow_divergences += other.stats.shadow_divergences;
    stats.wild_reads += other.stats.wild_reads;
    stats.wild_writes += other.stats.wild_writes;
}

/** One call frame: concrete machine state plus its shadow state. */
struct Interpreter::Frame {
    std::size_t fn_index = 0;
    std::size_t pc = 0;
    int steps = 0;

    std::array<std::uint32_t, bir::kNumRegs> regs{};
    /** Outgoing argument slots. */
    std::map<int, std::uint32_t> cargs;
    /** Incoming argument slots, set by the caller (concrete only:
     *  symexec models incoming args fresh per function). */
    std::map<int, std::uint32_t> in_args;
    std::uint32_t cret = 0;

    analysis::AbsState shadow;
    std::map<std::size_t, int> backjumps;

    bool is_entry = false;
    std::uint32_t opaque = 0;
};

/** Per-entry-run mutable machine: memory, heap, global budget. */
struct Interpreter::Machine {
    /** Concrete word overlay: written cells win over the image. */
    std::map<std::uint32_t, std::uint32_t> mem;
    std::uint32_t heap_next = kHeapBase;
    long total_steps = 0;
    std::uint32_t entry_addr = 0;
    std::uint32_t entry_opaque = 0;
};

Interpreter::Interpreter(const bir::BinaryImage& image,
                         const std::vector<analysis::VTableInfo>& vtables,
                         std::vector<std::uint32_t> this_callees,
                         const VmConfig& config)
    : image_(image), config_(config), vtables_(vtables),
      this_callees_(std::move(this_callees)), cache_(image)
{
    std::sort(this_callees_.begin(), this_callees_.end());
    this_callees_.erase(
        std::unique(this_callees_.begin(), this_callees_.end()),
        this_callees_.end());
    support::ThreadPool pool(1);
    cache_.build_all(pool);
    fingerprints_.reserve(cache_.size());
    for (std::size_t i = 0; i < cache_.size(); ++i)
        fingerprints_.push_back(
            function_fingerprints(image_, cache_.at(i)));
}

Interpreter::Interpreter(const bir::BinaryImage& image,
                         const analysis::AnalysisResult& analysis,
                         const VmConfig& config)
    : Interpreter(image, analysis.vtables,
                  analysis::this_callee_set(analysis), config)
{
}

std::size_t
Interpreter::total_blocks() const
{
    std::size_t n = 0;
    for (const auto& fps : fingerprints_)
        n += fps.size();
    return n;
}

std::uint32_t
Interpreter::load_word(Machine& m, std::uint32_t addr,
                       VmResult& out) const
{
    auto it = m.mem.find(addr);
    if (it != m.mem.end())
        return it->second;
    if (image_.in_data(addr)) {
        if (auto word = image_.read_data_word(addr))
            return *word;
    }
    if (addr >= kHeapBase && addr < m.heap_next)
        return 0; // heap cells start zeroed
    ++out.stats.wild_reads;
    return 0;
}

void
Interpreter::store_word(Machine& m, std::uint32_t addr,
                        std::uint32_t val, VmResult& out) const
{
    if (!image_.in_data(addr) &&
        !(addr >= kHeapBase && addr < m.heap_next))
        ++out.stats.wild_writes;
    m.mem[addr] = val;
}

std::uint32_t
Interpreter::alloc(Machine& m, std::uint32_t size) const
{
    std::uint32_t aligned = size < 8 ? 8 : ((size + 7u) & ~7u);
    std::uint32_t addr = m.heap_next;
    m.heap_next += aligned;
    return addr;
}

bool
Interpreter::enter(Machine& m, Frame& caller,
                   const bir::FunctionEntry* fe,
                   std::map<int, std::uint32_t> args, int depth,
                   VmResult& out) const
{
    caller.cargs.clear();
    if (depth + 1 >= config_.max_call_depth) {
        // Quiet skip: entering would exceed the depth cap. Skipping is
        // subset-safe -- the callee's frame simply never produces
        // events -- while unwinding mid-frame would not be.
        ++out.stats.depth_skips;
        caller.cret = 0;
        return true;
    }
    ++out.stats.calls;
    Frame callee;
    callee.fn_index =
        static_cast<std::size_t>(fe - image_.functions.data());
    callee.in_args = std::move(args);
    std::uint32_t ret = 0;
    if (!run_frame(m, callee, depth + 1, ret, out))
        return false;
    caller.cret = ret;
    return true;
}

bool
Interpreter::run_frame(Machine& m, Frame& frame, int depth,
                       std::uint32_t& ret, VmResult& out) const
{
    using analysis::AbsValue;

    ++out.stats.frames;
    const bir::FunctionEntry& fn = image_.functions[frame.fn_index];
    const cfg::Cfg& cfg = cache_.at(frame.fn_index);
    const auto& fps = fingerprints_[frame.fn_index];
    const analysis::Transfer shadow(
        image_, vtables_, config_.symexec, this_callees_, fn.addr,
        std::binary_search(this_callees_.begin(), this_callees_.end(),
                           fn.addr));

    auto trap = [&](TrapKind kind, std::uint32_t addr,
                    std::uint32_t detail) {
        out.traps.push_back(
            Trap{kind, m.entry_addr, fn.addr, addr, detail});
        return false;
    };

    // The frame's tracelets, with provenance, as symexec would cut
    // and attribute them at the end of the same path.
    auto finish_frame = [&] {
        shadow.finish_path(
            frame.shadow, [&](std::optional<std::uint32_t> type,
                              const analysis::ObjectEvents& events) {
                auto& dst = type ? out.type_tracelets[*type]
                                 : out.untyped_tracelets;
                std::size_t first = dst.size();
                events.cut_into(dst);
                for (std::size_t w = first; w < dst.size(); ++w)
                    out.records.push_back(
                        TraceRecord{m.entry_addr, m.entry_opaque,
                                    type.value_or(0), dst[w]});
            });
    };

    // The allocator stub: a fresh heap block of arg0 bytes.
    auto call_alloc = [&] {
        auto a0 = frame.cargs.find(0);
        frame.cret = alloc(m, a0 != frame.cargs.end() ? a0->second : 0);
        frame.cargs.clear();
        ++out.stats.allocs;
    };

    // Validity of a jump target within this function's slot range.
    auto jump_target = [&](std::uint32_t addr, std::size_t* idx) {
        if (addr < fn.addr ||
            (addr - fn.addr) % bir::kInstrSize != 0)
            return false;
        std::size_t t = (addr - fn.addr) / bir::kInstrSize;
        if (t >= cfg.slots.size())
            return false;
        *idx = t;
        return true;
    };

    ret = 0;
    for (;;) {
        // Frame-quiet endings are symexec path endings exactly
        // (checked before the next instruction, like symexec).
        if (frame.pc >= cfg.slots.size() ||
            frame.steps >= config_.symexec.max_steps) {
            if (frame.pc < cfg.slots.size())
                ++out.stats.frame_step_stops;
            finish_frame();
            return true;
        }
        if (m.total_steps >= config_.max_total_steps) {
            // Global budget: abort the whole entry run, discarding
            // this (and every enclosing) in-flight frame so no
            // partial tracelet windows escape.
            ++out.stats.budget_stops;
            return false;
        }

        const cfg::Slot& slot = cfg.slots[frame.pc];
        if (!slot.instr) {
            // Distinguish the two undecodable cases the way the
            // static verifier does: valid opcode byte with a bad
            // register operand vs. no valid opcode at all.
            std::uint32_t off = slot.addr - image_.code_base;
            std::uint8_t opb = off < image_.code.size()
                                   ? image_.code[off]
                                   : 0xff;
            bool known_op =
                opb <= static_cast<std::uint8_t>(Op::Jz);
            return trap(known_op ? TrapKind::BadRegister
                                 : TrapKind::BadOpcode,
                        slot.addr, opb);
        }
        const Instr& in = *slot.instr;
        ++frame.steps;
        ++m.total_steps;
        ++out.stats.steps;
        ++out.op_counts[static_cast<std::size_t>(in.op)];
        if (frame.pc < cfg.slot_block.size()) {
            int b = cfg.slot_block[frame.pc];
            if (b >= 0)
                out.coverage.insert(fps[static_cast<std::size_t>(b)]);
        }

        if (in.op == Op::Load) {
            // Trap check before the shadow transfer overwrites the
            // base: a dispatch read past the end of the vtable it
            // indexes refuses to execute. Only a vtable the *frame
            // itself* established (an in-frame vptr store -- exactly
            // when symexec resolves the table -- or a constant vtable
            // base) is trusted for the check: a method reached
            // through a secondary MI subobject legitimately carries a
            // shorter table than its body's primary-layout slot
            // indices (toyc lowers MI without this-adjusting thunks),
            // and symexec records those dispatches without complaint.
            if (const analysis::VTableInfo* vt =
                    shadow.known_vtable(frame.shadow.regs[in.b])) {
                std::int32_t disp = static_cast<std::int32_t>(in.imm);
                std::uint32_t sl =
                    static_cast<std::uint32_t>(disp) / bir::kWordSize;
                if (disp < 0 || sl >= vt->slots.size())
                    return trap(TrapKind::OobVtableSlot, slot.addr, sl);
            }
        }
        // The shadow half; below is the concrete half only.
        shadow.step(frame.shadow, in);

        std::size_t next = frame.pc + 1;

        switch (in.op) {
          case Op::Nop:
            break;
          case Op::MovImm:
            frame.regs[in.a] = in.imm;
            break;
          case Op::MovReg:
            frame.regs[in.a] = frame.regs[in.b];
            break;
          case Op::AddImm:
            frame.regs[in.a] = frame.regs[in.b] + in.imm;
            break;
          case Op::Load:
            frame.regs[in.a] =
                load_word(m, frame.regs[in.b] + in.imm, out);
            break;
          case Op::Store:
            store_word(m, frame.regs[in.a] + in.imm, frame.regs[in.b],
                       out);
            break;
          case Op::SetArg:
            frame.cargs[in.a] = frame.regs[in.b];
            break;
          case Op::GetArg: {
            std::uint32_t cv = 0;
            auto it = frame.in_args.find(in.b);
            if (it != frame.in_args.end())
                cv = it->second;
            else if (frame.is_entry)
                cv = frame.opaque;
            frame.regs[in.a] = cv;
            break;
          }
          case Op::GetRet:
            frame.regs[in.a] = frame.cret;
            break;
          case Op::Call: {
            if (in.imm == bir::kAllocStub) {
                call_alloc();
            } else if (in.imm == bir::kPurecallStub) {
                return trap(TrapKind::Purecall, slot.addr, in.imm);
            } else {
                const bir::FunctionEntry* fe =
                    image_.function_at(in.imm);
                if (!fe)
                    return trap(TrapKind::WildCall, slot.addr,
                                in.imm);
                if (!enter(m, frame, fe, frame.cargs, depth, out))
                    return false;
            }
            break;
          }
          case Op::CallInd: {
            // Concrete control transfer, by concrete target value.
            std::uint32_t ctarget = frame.regs[in.a];
            if (ctarget == 0) {
                // Dispatch through a never-initialized synthetic
                // vptr: counted skip, not a trap -- the VirtCall
                // event the shadow step emitted is the whole point of
                // the run.
                ++out.stats.skipped_indirect;
                frame.cargs.clear();
                frame.cret = 0;
            } else if (ctarget == bir::kPurecallStub) {
                return trap(TrapKind::Purecall, slot.addr, ctarget);
            } else if (ctarget == bir::kAllocStub) {
                call_alloc();
            } else if (const bir::FunctionEntry* fe =
                           image_.function_at(ctarget)) {
                if (!enter(m, frame, fe, frame.cargs, depth, out))
                    return false;
            } else {
                return trap(TrapKind::CallIndNonEntry, slot.addr,
                            ctarget);
            }
            break;
          }
          case Op::RetVal:
            finish_frame();
            ret = frame.regs[in.a];
            return true;
          case Op::Ret:
            finish_frame();
            return true;
          case Op::Jmp: {
            std::size_t tgt = 0;
            if (!jump_target(in.imm, &tgt))
                return trap(TrapKind::WildJump, slot.addr, in.imm);
            next = tgt;
            break;
          }
          case Op::Jnz:
          case Op::Jz: {
            std::size_t tgt = 0;
            bool valid = jump_target(in.imm, &tgt);
            bool conc_taken = (in.op == Op::Jnz)
                                  ? frame.regs[in.a] != 0
                                  : frame.regs[in.a] == 0;
            const AbsValue& cond = frame.shadow.regs[in.a];
            bool taken;
            if (cond.kind == AbsValue::Kind::Const) {
                // symexec commits to the shadow constant; follow it
                // even when the concrete value disagrees (it can,
                // when a callee mutated memory the frame-local
                // shadow cannot see).
                taken = (in.op == Op::Jnz) ? cond.imm != 0
                                           : cond.imm == 0;
                if (taken != conc_taken)
                    ++out.stats.shadow_divergences;
            } else {
                taken = conc_taken;
                if (taken && valid && tgt <= frame.pc) {
                    // symexec stops forking a backward branch after
                    // max_backjumps takes per pc; past that point the
                    // concrete loop would emit events in windows the
                    // static side never explored, so fall through.
                    int& count = frame.backjumps[frame.pc];
                    if (count >= config_.symexec.max_backjumps) {
                        taken = false;
                        ++out.stats.forced_fallthroughs;
                    } else {
                        ++count;
                    }
                }
            }
            if (taken) {
                if (!valid)
                    return trap(TrapKind::WildJump, slot.addr,
                                in.imm);
                next = tgt;
            }
            break;
          }
        }

        frame.pc = next;
    }
}

VmResult
Interpreter::run_entry(std::size_t fn_index, std::uint32_t opaque) const
{
    VmResult out;
    const bir::FunctionEntry& fn = image_.functions[fn_index];
    Machine m;
    m.entry_addr = fn.addr;
    m.entry_opaque = opaque;
    Frame frame;
    frame.fn_index = fn_index;
    frame.is_entry = true;
    frame.opaque = opaque;
    if (std::binary_search(this_callees_.begin(), this_callees_.end(),
                           fn.addr)) {
        // Methods/ctors get a real zeroed object as `this`, so field
        // and vptr traffic hits allocated storage.
        frame.in_args[0] = alloc(m, config_.this_object_bytes);
    }
    std::uint32_t ret = 0;
    if (run_frame(m, frame, 0, ret, out))
        out.entry_ret = ret;
    out.stats.runs = 1;
    return out;
}

VmResult
Interpreter::run_image(int threads) const
{
    const std::size_t variants = config_.opaque_values.size();
    const std::size_t total = image_.functions.size() * variants;
    std::vector<VmResult> slots(total);
    support::ThreadPool pool(support::resolve_threads(threads));
    pool.parallel_for(total, support::ChunkPlan{}, [&](std::size_t i) {
        std::size_t fi = i / variants;
        std::size_t vi = i % variants;
        slots[i] = run_entry(fi, config_.opaque_values[vi]);
    });
    VmResult merged;
    for (const auto& s : slots)
        merged.merge(s);
    merged.stats.entries = image_.functions.size();

    auto& reg = obs::Registry::global();
    static obs::Counter& c_entries = reg.counter("vm.entries");
    static obs::Counter& c_runs = reg.counter("vm.runs");
    static obs::Counter& c_steps = reg.counter("vm.steps");
    static obs::Counter& c_frames = reg.counter("vm.frames");
    static obs::Counter& c_calls = reg.counter("vm.calls");
    static obs::Counter& c_allocs = reg.counter("vm.allocs");
    static obs::Counter& c_traps = reg.counter("vm.traps");
    static obs::Counter& c_tracelets = reg.counter("vm.tracelets");
    static obs::Counter& c_blocks = reg.counter("vm.blocks_covered");
    static obs::Counter& c_skips = reg.counter("vm.skipped_indirect");
    c_entries.add(merged.stats.entries);
    c_runs.add(merged.stats.runs);
    c_steps.add(merged.stats.steps);
    c_frames.add(merged.stats.frames);
    c_calls.add(merged.stats.calls);
    c_allocs.add(merged.stats.allocs);
    c_traps.add(merged.traps.size());
    c_tracelets.add(merged.records.size());
    c_blocks.add(merged.coverage.size());
    c_skips.add(merged.stats.skipped_indirect);
    static const std::array<obs::Counter*, kNumOps> c_ops = [] {
        std::array<obs::Counter*, kNumOps> a{};
        for (std::size_t i = 0; i < kNumOps; ++i)
            a[i] = &obs::Registry::global().counter(
                "vm.op." + bir::op_name(static_cast<Op>(i)));
        return a;
    }();
    for (std::size_t i = 0; i < kNumOps; ++i)
        c_ops[i]->add(merged.op_counts[i]);
    static const std::array<obs::Counter*, kNumTrapKinds> c_trapk = [] {
        std::array<obs::Counter*, kNumTrapKinds> a{};
        for (int i = 0; i < kNumTrapKinds; ++i)
            a[i] = &obs::Registry::global().counter(
                std::string("vm.traps.") +
                trap_name(static_cast<TrapKind>(i)));
        return a;
    }();
    for (const Trap& t : merged.traps)
        c_trapk[static_cast<int>(t.kind)]->add();
    return merged;
}

} // namespace rock::vm
