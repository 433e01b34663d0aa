#include "vm/vm.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/parallel.h"
#include "vm/coverage.h"

namespace rock::vm {

using analysis::Event;
using analysis::EventKind;
using analysis::Tracelet;
using bir::Instr;
using bir::Op;

namespace {

/** Base of the bump-allocated heap (above any data section). */
constexpr std::uint32_t kHeapBase = 0x40000000;

} // namespace

VmConfig
VmConfig::mirror(const analysis::SymExecConfig& se)
{
    VmConfig c;
    c.tracelet_len = se.tracelet_len;
    c.max_steps = se.max_steps;
    c.max_backjumps = se.max_backjumps;
    c.sliding_windows = se.sliding_windows;
    c.attribute_shared_methods_to_all =
        se.attribute_shared_methods_to_all;
    return c;
}

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

/**
 * Mirror of SymbolicExecutor::Value (analysis/symexec.cc): the shadow
 * abstract value carried next to every concrete register. Field
 * meanings are identical; so are the transfer functions in
 * run_frame() -- any deliberate divergence would break the
 * dynamic-subset-of-static contract the differential oracle checks.
 */
struct Interpreter::Shadow {
    enum class Kind : std::uint8_t {
        Unknown,
        Const,
        Obj,
        Vptr,
        SlotFn,
    };

    Kind kind = Kind::Unknown;
    std::uint32_t imm = 0;
    int obj = -1;
    std::int32_t off = 0;
    std::uint32_t slot = 0;
    std::uint32_t slot_aux = 0;

    static Shadow unknown() { return {}; }

    static Shadow
    constant(std::uint32_t imm)
    {
        Shadow v;
        v.kind = Kind::Const;
        v.imm = imm;
        return v;
    }

    static Shadow
    object(int obj, std::int32_t off)
    {
        Shadow v;
        v.kind = Kind::Obj;
        v.obj = obj;
        v.off = off;
        return v;
    }
};

/** Mirror of SymbolicExecutor::AbsObject + the concrete base addr. */
struct Interpreter::DynObject {
    std::map<std::int32_t, std::uint32_t> vptr_stores;
    std::vector<Event> events;
    bool is_this_param = false;
    /** Concrete address backing the object (0 when unknown). */
    std::uint32_t base = 0;
};

/**
 * One call frame: concrete machine state interleaved with the shadow
 * state of symexec's PathState for the same function.
 */
struct Interpreter::Frame {
    std::size_t fn_index = 0;
    std::size_t pc = 0;
    int steps = 0;

    std::array<std::uint32_t, bir::kNumRegs> regs{};
    std::array<Shadow, bir::kNumRegs> sregs;

    /** Outgoing argument slots (concrete / shadow). */
    std::map<int, std::uint32_t> cargs;
    std::map<int, Shadow> sargs;
    /** Incoming argument slots, set by the caller (concrete only:
     *  symexec models incoming args fresh per function). */
    std::map<int, std::uint32_t> in_args;

    std::uint32_t cret = 0;
    Shadow sret;

    std::vector<DynObject> objects;
    /** Shadow memory keyed by (object, absolute offset). */
    std::map<std::pair<int, std::int32_t>, Shadow> smem;
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
                         const std::set<std::uint32_t>& this_callees,
                         const VmConfig& config)
    : image_(image), config_(config), vtables_(vtables),
      this_callees_(this_callees), cache_(image)
{
    for (std::size_t i = 0; i < vtables_.size(); ++i) {
        vtable_index_[vtables_[i].addr] = i;
        for (std::uint32_t fn : vtables_[i].slots)
            containing_[fn].push_back(vtables_[i].addr);
    }
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

const analysis::VTableInfo*
Interpreter::vtable_at(std::uint32_t addr, std::uint32_t* slot) const
{
    auto it = vtable_index_.upper_bound(addr);
    if (it == vtable_index_.begin())
        return nullptr;
    --it;
    const analysis::VTableInfo& vt = vtables_[it->second];
    std::uint32_t end =
        vt.addr +
        static_cast<std::uint32_t>(vt.slots.size()) * bir::kWordSize;
    if (addr < vt.addr || addr >= end)
        return nullptr;
    if ((addr - vt.addr) % bir::kWordSize != 0)
        return nullptr;
    *slot = (addr - vt.addr) / bir::kWordSize;
    return &vt;
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
    ++out.stats.frames;
    const bir::FunctionEntry& fn = image_.functions[frame.fn_index];
    const cfg::Cfg& cfg = cache_.at(frame.fn_index);
    const auto& fps = fingerprints_[frame.fn_index];
    const bool arg0_is_object = this_callees_.count(fn.addr) != 0;

    auto trap = [&](TrapKind kind, std::uint32_t addr,
                    std::uint32_t detail) {
        out.traps.push_back(
            Trap{kind, m.entry_addr, fn.addr, addr, detail});
        return false;
    };

    auto emit = [&](int obj, Event e) {
        frame.objects[static_cast<std::size_t>(obj)].events.push_back(
            e);
    };

    // Shadow mirror of symexec's call_effects: classify passed object
    // args, then clear the shadow arg slots and return value.
    auto call_effects = [&](std::uint32_t callee, bool callee_known) {
        for (const auto& [slot, val] : frame.sargs) {
            if (val.kind != Shadow::Kind::Obj)
                continue;
            if (slot == 0 && callee_known &&
                this_callees_.count(callee)) {
                emit(val.obj, Event{EventKind::PassedThis, 0, 0});
            } else {
                emit(val.obj,
                     Event{EventKind::PassedArg,
                           static_cast<std::uint32_t>(slot), 0});
            }
            if (callee_known)
                emit(val.obj, Event{EventKind::CallDirect, callee, 0});
        }
        frame.sargs.clear();
        frame.sret = Shadow::unknown();
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
        // Frame-quiet endings mirror symexec path endings exactly
        // (checked before the next instruction, like symexec).
        if (frame.pc >= cfg.slots.size() ||
            frame.steps >= config_.max_steps) {
            if (frame.pc < cfg.slots.size())
                ++out.stats.frame_step_stops;
            finish_frame(m, frame, out);
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

        std::size_t next = frame.pc + 1;

        switch (in.op) {
          case Op::Nop:
            break;
          case Op::MovImm:
            frame.regs[in.a] = in.imm;
            frame.sregs[in.a] = Shadow::constant(in.imm);
            break;
          case Op::MovReg:
            frame.regs[in.a] = frame.regs[in.b];
            frame.sregs[in.a] = frame.sregs[in.b];
            break;
          case Op::AddImm: {
            std::int32_t delta = static_cast<std::int32_t>(in.imm);
            frame.regs[in.a] = frame.regs[in.b] + in.imm;
            Shadow v = frame.sregs[in.b];
            switch (v.kind) {
              case Shadow::Kind::Obj:
                v.off += delta;
                break;
              case Shadow::Kind::Const:
                v.imm += static_cast<std::uint32_t>(delta);
                break;
              default:
                v = Shadow::unknown();
                break;
            }
            frame.sregs[in.a] = v;
            break;
          }
          case Op::Load: {
            const Shadow& base = frame.sregs[in.b];
            std::int32_t disp = static_cast<std::int32_t>(in.imm);
            // Trap checks first: a dispatch read past the end of the
            // vtable it indexes refuses to execute. Only a vtable the
            // *frame itself* established (an in-frame vptr store, so
            // base.imm != 0 -- mirroring when symexec resolves the
            // table) is trusted for the check: a method reached
            // through a secondary MI subobject legitimately carries a
            // shorter table than its body's primary-layout slot
            // indices (toyc lowers MI without this-adjusting thunks),
            // and symexec records those dispatches without complaint.
            if (base.kind == Shadow::Kind::Vptr && base.imm != 0) {
                std::uint32_t vt_addr = base.imm;
                auto vit = vtable_index_.find(vt_addr);
                if (vit != vtable_index_.end()) {
                    auto nslots = static_cast<std::uint32_t>(
                        vtables_[vit->second].slots.size());
                    std::uint32_t sl =
                        static_cast<std::uint32_t>(disp) /
                        bir::kWordSize;
                    if (disp < 0 || sl >= nslots)
                        return trap(TrapKind::OobVtableSlot,
                                    slot.addr, sl);
                }
            } else if (base.kind == Shadow::Kind::Const &&
                       vtable_index_.count(base.imm) != 0) {
                auto nslots = static_cast<std::uint32_t>(
                    vtables_[vtable_index_.at(base.imm)]
                        .slots.size());
                std::uint32_t sl =
                    static_cast<std::uint32_t>(disp) / bir::kWordSize;
                if (disp < 0 || sl >= nslots)
                    return trap(TrapKind::OobVtableSlot, slot.addr,
                                sl);
            }
            // Shadow transfer (verbatim symexec Load).
            Shadow sout = Shadow::unknown();
            if (base.kind == Shadow::Kind::Obj) {
                std::int32_t abs = base.off + disp;
                auto& obj =
                    frame.objects[static_cast<std::size_t>(base.obj)];
                bool vptr_slot = obj.vptr_stores.count(abs) != 0 ||
                                 (obj.is_this_param && abs == 0);
                if (vptr_slot) {
                    sout.kind = Shadow::Kind::Vptr;
                    sout.obj = base.obj;
                    sout.off = abs;
                    auto stored = obj.vptr_stores.find(abs);
                    if (stored != obj.vptr_stores.end())
                        sout.imm = stored->second;
                } else {
                    emit(base.obj,
                         Event{EventKind::ReadField,
                               static_cast<std::uint32_t>(abs), 0});
                    auto cell = frame.smem.find({base.obj, abs});
                    if (cell != frame.smem.end())
                        sout = cell->second;
                }
            } else if (base.kind == Shadow::Kind::Vptr) {
                sout.kind = Shadow::Kind::SlotFn;
                sout.obj = base.obj;
                sout.slot =
                    static_cast<std::uint32_t>(disp) / bir::kWordSize;
                sout.slot_aux = static_cast<std::uint32_t>(base.off);
                if (base.imm != 0) {
                    auto word =
                        image_.read_data_word(base.imm + in.imm);
                    if (word)
                        sout.imm = *word;
                }
            } else if (base.kind == Shadow::Kind::Const &&
                       image_.in_data(base.imm)) {
                std::uint32_t addr =
                    base.imm + static_cast<std::uint32_t>(disp);
                std::uint32_t sl = 0;
                if (const analysis::VTableInfo* vt =
                        vtable_at(addr, &sl)) {
                    sout.kind = Shadow::Kind::SlotFn;
                    sout.obj = -1;
                    sout.slot = sl;
                    sout.slot_aux = 0;
                    sout.imm = vt->slots[sl];
                } else if (auto word = image_.read_data_word(addr)) {
                    sout = Shadow::constant(*word);
                }
            }
            // Concrete transfer.
            frame.regs[in.a] =
                load_word(m, frame.regs[in.b] + in.imm, out);
            frame.sregs[in.a] = sout;
            break;
          }
          case Op::Store: {
            const Shadow& base = frame.sregs[in.a];
            const Shadow& val = frame.sregs[in.b];
            std::int32_t disp = static_cast<std::int32_t>(in.imm);
            if (base.kind == Shadow::Kind::Obj) {
                std::int32_t abs = base.off + disp;
                auto& obj =
                    frame.objects[static_cast<std::size_t>(base.obj)];
                if (val.kind == Shadow::Kind::Const &&
                    vtable_index_.count(val.imm) != 0) {
                    obj.vptr_stores[abs] = val.imm;
                } else {
                    emit(base.obj,
                         Event{EventKind::WriteField,
                               static_cast<std::uint32_t>(abs), 0});
                }
                frame.smem[{base.obj, abs}] = val;
            }
            store_word(m, frame.regs[in.a] + in.imm, frame.regs[in.b],
                       out);
            break;
          }
          case Op::SetArg:
            frame.cargs[in.a] = frame.regs[in.b];
            frame.sargs[in.a] = frame.sregs[in.b];
            break;
          case Op::GetArg: {
            Shadow sv = Shadow::unknown();
            std::uint32_t cv = 0;
            auto it = frame.in_args.find(in.b);
            if (it != frame.in_args.end())
                cv = it->second;
            else if (frame.is_entry)
                cv = frame.opaque;
            if (in.b == 0 && arg0_is_object) {
                int found = -1;
                for (std::size_t i = 0; i < frame.objects.size();
                     ++i) {
                    if (frame.objects[i].is_this_param)
                        found = static_cast<int>(i);
                }
                if (found < 0) {
                    DynObject obj;
                    obj.is_this_param = true;
                    obj.base = cv;
                    frame.objects.push_back(std::move(obj));
                    found =
                        static_cast<int>(frame.objects.size()) - 1;
                }
                sv = Shadow::object(found, 0);
            }
            frame.regs[in.a] = cv;
            frame.sregs[in.a] = sv;
            break;
          }
          case Op::GetRet:
            frame.regs[in.a] = frame.cret;
            frame.sregs[in.a] = frame.sret;
            break;
          case Op::Call: {
            if (in.imm == bir::kAllocStub) {
                DynObject obj;
                frame.objects.push_back(std::move(obj));
                frame.sargs.clear();
                frame.sret = Shadow::object(
                    static_cast<int>(frame.objects.size()) - 1, 0);
                std::uint32_t size = 0;
                auto a0 = frame.cargs.find(0);
                if (a0 != frame.cargs.end())
                    size = a0->second;
                std::uint32_t addr = alloc(m, size);
                frame.objects.back().base = addr;
                frame.cargs.clear();
                frame.cret = addr;
                ++out.stats.allocs;
            } else if (in.imm == bir::kPurecallStub) {
                return trap(TrapKind::Purecall, slot.addr, in.imm);
            } else {
                call_effects(in.imm, true);
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
            const Shadow& target = frame.sregs[in.a];
            std::uint32_t ctarget = frame.regs[in.a];
            if (target.kind == Shadow::Kind::SlotFn) {
                int receiver = target.obj;
                std::uint32_t aux = target.slot_aux;
                auto arg0 = frame.sargs.find(0);
                if (receiver < 0 && arg0 != frame.sargs.end() &&
                    arg0->second.kind == Shadow::Kind::Obj) {
                    receiver = arg0->second.obj;
                    aux = static_cast<std::uint32_t>(
                        arg0->second.off);
                }
                if (receiver >= 0) {
                    emit(receiver, Event{EventKind::VirtCall,
                                         target.slot, aux});
                }
                for (const auto& [aslot, val] : frame.sargs) {
                    if (aslot != 0 &&
                        val.kind == Shadow::Kind::Obj) {
                        emit(val.obj,
                             Event{EventKind::PassedArg,
                                   static_cast<std::uint32_t>(aslot),
                                   0});
                    }
                }
                frame.sargs.clear();
                frame.sret = Shadow::unknown();
            } else if (target.kind == Shadow::Kind::Const &&
                       image_.is_function_start(target.imm)) {
                call_effects(target.imm, true);
            } else {
                call_effects(0, false);
            }
            // Concrete control transfer, by concrete target value.
            if (ctarget == 0) {
                // Dispatch through a never-initialized synthetic
                // vptr: counted skip, not a trap -- the VirtCall
                // event above is the whole point of the run.
                ++out.stats.skipped_indirect;
                frame.cargs.clear();
                frame.cret = 0;
            } else if (ctarget == bir::kPurecallStub) {
                return trap(TrapKind::Purecall, slot.addr, ctarget);
            } else if (ctarget == bir::kAllocStub) {
                std::uint32_t size = 0;
                auto a0 = frame.cargs.find(0);
                if (a0 != frame.cargs.end())
                    size = a0->second;
                std::uint32_t addr = alloc(m, size);
                frame.cargs.clear();
                frame.cret = addr;
                ++out.stats.allocs;
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
          case Op::RetVal: {
            const Shadow& v = frame.sregs[in.a];
            if (v.kind == Shadow::Kind::Obj)
                emit(v.obj, Event{EventKind::Returned, 0, 0});
            finish_frame(m, frame, out);
            ret = frame.regs[in.a];
            return true;
          }
          case Op::Ret:
            finish_frame(m, frame, out);
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
            const Shadow& cond = frame.sregs[in.a];
            bool taken;
            if (cond.kind == Shadow::Kind::Const) {
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
                    if (count >= config_.max_backjumps) {
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

void
Interpreter::finish_frame(Machine& m, Frame& frame, VmResult& out) const
{
    const bir::FunctionEntry& fn = image_.functions[frame.fn_index];
    auto owners_it = containing_.find(fn.addr);
    const bool fn_in_vtable = owners_it != containing_.end() &&
                              !owners_it->second.empty();

    for (const auto& obj : frame.objects) {
        // Type attribution, verbatim symexec finish_path.
        std::vector<std::uint32_t> types;
        auto primary = obj.vptr_stores.find(0);
        if (primary != obj.vptr_stores.end()) {
            types.push_back(primary->second);
        } else if (obj.is_this_param && fn_in_vtable) {
            const auto& owners = owners_it->second;
            if (config_.attribute_shared_methods_to_all) {
                types = owners;
            } else if (!owners.empty()) {
                types.push_back(owners.front());
            }
        }
        if (obj.events.empty())
            continue;
        const auto& ev = obj.events;
        std::size_t len =
            static_cast<std::size_t>(config_.tracelet_len);
        std::vector<Tracelet> windows;
        if (config_.sliding_windows && ev.size() > len) {
            for (std::size_t i = 0; i + len <= ev.size(); ++i)
                windows.emplace_back(ev.begin() + i,
                                     ev.begin() + i + len);
        } else {
            for (std::size_t i = 0; i < ev.size(); i += len) {
                std::size_t hi = std::min(ev.size(), i + len);
                windows.emplace_back(ev.begin() + i, ev.begin() + hi);
            }
        }
        for (std::uint32_t type : types) {
            auto& dst = out.type_tracelets[type];
            dst.insert(dst.end(), windows.begin(), windows.end());
            for (const auto& w : windows)
                out.records.push_back(TraceRecord{
                    m.entry_addr, m.entry_opaque, type, w});
        }
        if (types.empty() && obj.is_this_param) {
            out.untyped_tracelets.insert(out.untyped_tracelets.end(),
                                         windows.begin(),
                                         windows.end());
            for (const auto& w : windows)
                out.records.push_back(
                    TraceRecord{m.entry_addr, m.entry_opaque, 0, w});
        }
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
    if (this_callees_.count(fn.addr) != 0) {
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

    if (obs::metrics_enabled()) {
        auto& reg = obs::Registry::global();
        static obs::Counter& c_entries = reg.counter("vm.entries");
        static obs::Counter& c_runs = reg.counter("vm.runs");
        static obs::Counter& c_steps = reg.counter("vm.steps");
        static obs::Counter& c_frames = reg.counter("vm.frames");
        static obs::Counter& c_calls = reg.counter("vm.calls");
        static obs::Counter& c_allocs = reg.counter("vm.allocs");
        static obs::Counter& c_traps = reg.counter("vm.traps");
        static obs::Counter& c_tracelets =
            reg.counter("vm.tracelets");
        static obs::Counter& c_blocks =
            reg.counter("vm.blocks_covered");
        static obs::Counter& c_skips =
            reg.counter("vm.skipped_indirect");
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
        static const std::array<obs::Counter*, kNumTrapKinds>
            c_trapk = [] {
                std::array<obs::Counter*, kNumTrapKinds> a{};
                for (int i = 0; i < kNumTrapKinds; ++i)
                    a[i] = &obs::Registry::global().counter(
                        std::string("vm.traps.") +
                        trap_name(static_cast<TrapKind>(i)));
                return a;
            }();
        for (const Trap& t : merged.traps)
            c_trapk[static_cast<int>(t.kind)]->add();
    }
    return merged;
}

} // namespace rock::vm
