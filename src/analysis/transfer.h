/**
 * @file
 * The abstract object domain and its transfer function: the one
 * definition of how an instruction moves abstract values, creates
 * abstract objects and emits object events (paper Section 3.2 and
 * Table 1), and of how a finished path's events become tracelets.
 *
 * Two interpreters drive it. analysis::SymbolicExecutor forks paths
 * over an AbsState and owns the path budget and branch policy; rockvm
 * (vm/vm.h) carries one AbsState per concrete call frame as its
 * shadow state and owns concrete semantics, traps and call frames.
 * Both call the same Transfer::step() per instruction and the same
 * Transfer::finish_path() where a path ends, so the tracelets of a
 * concrete path are by construction those symexec extracts along
 * the same intra-procedural path.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/event.h"
#include "analysis/vtable_scan.h"
#include "bir/image.h"

namespace rock::analysis {

struct SymExecConfig;

/** An abstract value held in a register, argument or memory cell. */
struct AbsValue {
    enum class Kind : std::uint8_t {
        Unknown,
        Const,  ///< known 32-bit constant (imm)
        Obj,    ///< pointer to abstract object `obj` at byte offset
        Vptr,   ///< value loaded from a vptr slot of object `obj`
        SlotFn, ///< function pointer loaded from vtable slot `slot`
    };

    Kind kind = Kind::Unknown;
    /** Const: the value; Vptr: the stored vtable (0 = unknown);
     *  SlotFn: the slot's function (0 = unknown). */
    std::uint32_t imm = 0;
    int obj = -1;
    std::int32_t off = 0;       ///< Obj: offset; Vptr: vptr offset
    std::uint32_t slot = 0;     ///< SlotFn: slot index
    std::uint32_t slot_aux = 0; ///< SlotFn: subobject vptr offset

    static AbsValue unknown() { return {}; }

    static AbsValue
    constant(std::uint32_t imm)
    {
        AbsValue v;
        v.kind = Kind::Const;
        v.imm = imm;
        return v;
    }

    static AbsValue
    object(int obj, std::int32_t off)
    {
        AbsValue v;
        v.kind = Kind::Obj;
        v.obj = obj;
        v.off = off;
        return v;
    }
};

/** One abstract object along one path. */
struct AbsObject {
    /** Vtable stored at each object offset (last store wins). */
    std::map<std::int32_t, std::uint32_t> vptr_stores;
    /** Direct calls that received the object (+offset) as `this`. */
    std::vector<std::pair<std::int32_t, std::uint32_t>> this_calls;
    /** Events in emission order. */
    std::vector<Event> events;
    /** The object is the executed function's own first argument. */
    bool is_this_param = false;
};

/** The abstract state of one path through one function. */
struct AbsState {
    std::array<AbsValue, bir::kNumRegs> regs;
    /** Outgoing argument slots set since the last call. */
    std::map<int, AbsValue> out_args;
    /** What GetRet reads: the last call's return value. */
    AbsValue last_ret;
    /** Objects in creation order; AbsValue::obj indexes this. */
    std::vector<AbsObject> objects;
    /** Memory cells keyed by (object, absolute offset). */
    std::map<std::pair<int, std::int32_t>, AbsValue> mem;
};

/** Discovered vtables indexed by address. */
class VTableIndex {
  public:
    /** @param vtables discovered vtables, in scan_vtables order */
    explicit VTableIndex(std::vector<VTableInfo> vtables);

    /** The vtable starting at @p addr, or nullptr. */
    const VTableInfo* starting_at(std::uint32_t addr) const;

    /** The vtable whose slot array holds the word at @p addr (sets
     *  @p slot), or nullptr. */
    const VTableInfo* covering(std::uint32_t addr,
                               std::uint32_t* slot) const;

    /** Vtables (by address, in scan order) whose slots contain
     *  @p func. */
    const std::vector<std::uint32_t>& owners(std::uint32_t func) const;

  private:
    std::vector<VTableInfo> vtables_;
    /** vtable start address -> index into vtables_. */
    std::map<std::uint32_t, std::size_t> by_addr_;
    /** function address -> vtable addresses containing it. */
    std::map<std::uint32_t, std::vector<std::uint32_t>> owners_;
    std::vector<std::uint32_t> none_;
};

/**
 * Receives one object's tracelets at a path end: the vtable they are
 * attributed to, or nullopt for the function's own `this` object
 * when no type covers it.
 */
using TraceletSink =
    std::function<void(std::optional<std::uint32_t> type,
                       const std::vector<Tracelet>& windows)>;

/** The abstract semantics of one function body. */
class Transfer {
  public:
    /**
     * @param image           the image the function belongs to
     * @param vtables         its discovered vtables
     * @param config          tracelet shape and attribution knobs
     * @param this_callees    callees whose first argument is `this`
     * @param fn_addr         entry address of the function
     * @param arg0_is_object  model the function's own first argument
     *                        as an abstract object
     */
    Transfer(const bir::BinaryImage& image, const VTableIndex& vtables,
             const SymExecConfig& config,
             const std::set<std::uint32_t>& this_callees,
             std::uint32_t fn_addr, bool arg0_is_object);

    /**
     * Apply @p in to @p st, emitting its Table-1 events. Control ops
     * (Jmp, Jz, Jnz, Ret) change nothing; RetVal only emits `ret`.
     * Branch decisions and path ends belong to the caller.
     */
    void step(AbsState& st, const bir::Instr& in) const;

    /**
     * End a path: for every object of @p st with events, in creation
     * order, cut its events into tracelets (disjoint chunks of
     * tracelet_len, or sliding windows) and hand them to @p sink once
     * per attributed type -- the vtable stored at offset 0, else, for
     * the function's own `this`, every vtable owning the function (or
     * only the first under !attribute_shared_methods_to_all) -- or
     * once with nullopt for a `this` object no type covers.
     */
    void finish_path(const AbsState& st,
                     const TraceletSink& sink) const;

    /**
     * The vtable whose start @p base holds, when the path itself
     * established it: a Vptr of an in-path vptr store, or a Const
     * vtable address. nullptr otherwise.
     */
    const VTableInfo* known_vtable(const AbsValue& base) const;

  private:
    static void
    emit(AbsState& st, int obj, Event e)
    {
        st.objects[static_cast<std::size_t>(obj)].events.push_back(e);
    }

    void call_effects(AbsState& st, std::uint32_t callee,
                      bool callee_known) const;

    const bir::BinaryImage& image_;
    const VTableIndex& vtables_;
    const SymExecConfig& config_;
    const std::set<std::uint32_t>& this_callees_;
    const std::vector<std::uint32_t>& owners_;
    const bool arg0_is_object_;
};

// Defined here so both interpreters inline the per-instruction path.

inline void
Transfer::call_effects(AbsState& st, std::uint32_t callee,
                       bool callee_known) const
{
    for (const auto& [slot, val] : st.out_args) {
        if (val.kind != AbsValue::Kind::Obj)
            continue;
        if (slot == 0 && callee_known && this_callees_.count(callee)) {
            emit(st, val.obj, Event{EventKind::PassedThis, 0, 0});
            st.objects[static_cast<std::size_t>(val.obj)]
                .this_calls.emplace_back(val.off, callee);
        } else {
            emit(st, val.obj,
                 Event{EventKind::PassedArg,
                       static_cast<std::uint32_t>(slot), 0});
        }
        if (callee_known)
            emit(st, val.obj, Event{EventKind::CallDirect, callee, 0});
    }
    st.out_args.clear();
    st.last_ret = AbsValue::unknown();
}

inline void
Transfer::step(AbsState& st, const bir::Instr& in) const
{
    using bir::Op;
    using Kind = AbsValue::Kind;

    switch (in.op) {
      case Op::Nop:
      case Op::Ret:
      case Op::Jmp:
      case Op::Jnz:
      case Op::Jz:
        break;
      case Op::MovImm:
        st.regs[in.a] = AbsValue::constant(in.imm);
        break;
      case Op::MovReg:
        st.regs[in.a] = st.regs[in.b];
        break;
      case Op::AddImm: {
        AbsValue v = st.regs[in.b];
        std::int32_t delta = static_cast<std::int32_t>(in.imm);
        switch (v.kind) {
          case Kind::Obj:
            v.off += delta;
            break;
          case Kind::Const:
            v.imm += static_cast<std::uint32_t>(delta);
            break;
          default:
            v = AbsValue::unknown();
            break;
        }
        st.regs[in.a] = v;
        break;
      }
      case Op::Load: {
        const AbsValue& base = st.regs[in.b];
        std::int32_t disp = static_cast<std::int32_t>(in.imm);
        AbsValue out = AbsValue::unknown();
        if (base.kind == Kind::Obj) {
            std::int32_t abs = base.off + disp;
            auto& obj = st.objects[static_cast<std::size_t>(base.obj)];
            bool vptr_slot = obj.vptr_stores.count(abs) != 0 ||
                             (obj.is_this_param && abs == 0);
            if (vptr_slot) {
                // Reading the object's vptr: no field event.
                out.kind = Kind::Vptr;
                out.obj = base.obj;
                out.off = abs;
                auto stored = obj.vptr_stores.find(abs);
                if (stored != obj.vptr_stores.end())
                    out.imm = stored->second;
            } else {
                emit(st, base.obj,
                     Event{EventKind::ReadField,
                           static_cast<std::uint32_t>(abs), 0});
                auto cell = st.mem.find({base.obj, abs});
                if (cell != st.mem.end())
                    out = cell->second;
            }
        } else if (base.kind == Kind::Vptr) {
            // Loading a function pointer out of a vtable.
            out.kind = Kind::SlotFn;
            out.obj = base.obj;
            out.slot = static_cast<std::uint32_t>(disp) / bir::kWordSize;
            out.slot_aux = static_cast<std::uint32_t>(base.off);
            if (base.imm != 0) {
                if (auto word = image_.read_data_word(base.imm + in.imm))
                    out.imm = *word;
            }
        } else if (base.kind == Kind::Const && image_.in_data(base.imm)) {
            std::uint32_t addr = base.imm + static_cast<std::uint32_t>(disp);
            std::uint32_t slot = 0;
            if (const VTableInfo* vt = vtables_.covering(addr, &slot)) {
                out.kind = Kind::SlotFn;
                out.obj = -1;
                out.slot = slot;
                out.slot_aux = 0;
                out.imm = vt->slots[slot];
            } else if (auto word = image_.read_data_word(addr)) {
                out = AbsValue::constant(*word);
            }
        }
        st.regs[in.a] = out;
        break;
      }
      case Op::Store: {
        const AbsValue& base = st.regs[in.a];
        const AbsValue& val = st.regs[in.b];
        if (base.kind == Kind::Obj) {
            std::int32_t abs = base.off + static_cast<std::int32_t>(in.imm);
            auto& obj = st.objects[static_cast<std::size_t>(base.obj)];
            if (val.kind == Kind::Const &&
                vtables_.starting_at(val.imm) != nullptr) {
                // vptr assignment: types the object.
                obj.vptr_stores[abs] = val.imm;
            } else {
                emit(st, base.obj,
                     Event{EventKind::WriteField,
                           static_cast<std::uint32_t>(abs), 0});
            }
            st.mem[{base.obj, abs}] = val;
        }
        break;
      }
      case Op::SetArg:
        st.out_args[in.a] = st.regs[in.b];
        break;
      case Op::GetArg: {
        AbsValue v = AbsValue::unknown();
        if (in.b == 0 && arg0_is_object_) {
            // Locate or create the `this` object.
            int found = -1;
            for (std::size_t i = 0; i < st.objects.size(); ++i) {
                if (st.objects[i].is_this_param)
                    found = static_cast<int>(i);
            }
            if (found < 0) {
                AbsObject obj;
                obj.is_this_param = true;
                st.objects.push_back(std::move(obj));
                found = static_cast<int>(st.objects.size()) - 1;
            }
            v = AbsValue::object(found, 0);
        }
        st.regs[in.a] = v;
        break;
      }
      case Op::GetRet:
        st.regs[in.a] = st.last_ret;
        break;
      case Op::Call:
        if (in.imm == bir::kAllocStub) {
            st.objects.push_back(AbsObject{});
            st.out_args.clear();
            st.last_ret = AbsValue::object(
                static_cast<int>(st.objects.size()) - 1, 0);
        } else if (in.imm == bir::kPurecallStub) {
            st.out_args.clear();
            st.last_ret = AbsValue::unknown();
        } else {
            call_effects(st, in.imm, true);
        }
        break;
      case Op::CallInd: {
        const AbsValue& target = st.regs[in.a];
        if (target.kind == Kind::SlotFn) {
            // Virtual dispatch: C(slot) on the receiver.
            int receiver = target.obj;
            std::uint32_t aux = target.slot_aux;
            auto arg0 = st.out_args.find(0);
            if (receiver < 0 && arg0 != st.out_args.end() &&
                arg0->second.kind == Kind::Obj) {
                receiver = arg0->second.obj;
                aux = static_cast<std::uint32_t>(arg0->second.off);
            }
            if (receiver >= 0) {
                emit(st, receiver,
                     Event{EventKind::VirtCall, target.slot, aux});
            }
            // Remaining object args still count as passed.
            for (const auto& [slot, val] : st.out_args) {
                if (slot != 0 && val.kind == Kind::Obj) {
                    emit(st, val.obj,
                         Event{EventKind::PassedArg,
                               static_cast<std::uint32_t>(slot), 0});
                }
            }
            st.out_args.clear();
            st.last_ret = AbsValue::unknown();
        } else if (target.kind == Kind::Const &&
                   image_.is_function_start(target.imm)) {
            call_effects(st, target.imm, true);
        } else {
            call_effects(st, 0, false);
        }
        break;
      }
      case Op::RetVal: {
        const AbsValue& v = st.regs[in.a];
        if (v.kind == Kind::Obj)
            emit(st, v.obj, Event{EventKind::Returned, 0, 0});
        break;
      }
    }
}

} // namespace rock::analysis
