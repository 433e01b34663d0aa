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

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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

/**
 * One abstract object along one path. What the path did to it -- its
 * events, vptr stores and `this` calls -- sits in the owning
 * AbsState's flat arrays, tagged with the object's index.
 */
struct AbsObject {
    /** The object is the executed function's own first argument. */
    bool is_this_param = false;
    /** Events the object has received. */
    std::uint32_t num_events = 0;
};

/** A vtable stored into an object (last store per offset wins). */
struct VptrStore {
    int obj = -1;
    std::int32_t off = 0;
    std::uint32_t vtable = 0;
};

/** A direct call that received an object (+offset) as `this`. */
struct ThisCall {
    int obj = -1;
    std::int32_t off = 0;
    std::uint32_t callee = 0;
};

/** One event on one object. */
struct ObjectEvent {
    int obj = -1;
    Event event;
};

/** A memory cell of an object, at an absolute offset. */
struct MemCell {
    int obj = -1;
    std::int32_t off = 0;
    AbsValue value;
};

/** An outgoing argument slot. */
struct OutArg {
    int slot = 0;
    AbsValue value;
};

/**
 * The abstract state of one path through one function. Every member
 * is an array of plain values, so copying a state into one whose
 * buffers are large enough (a fork into a reused path-stack slot)
 * allocates nothing. The keyed arrays are sorted by their key and
 * small: a handful of cells per object along one path.
 */
struct AbsState {
    std::array<AbsValue, bir::kNumRegs> regs;
    /** Outgoing argument slots set since the last call, by slot. */
    std::vector<OutArg> out_args;
    /** What GetRet reads: the last call's return value. */
    AbsValue last_ret;
    /** Objects in creation order; AbsValue::obj indexes this. */
    std::vector<AbsObject> objects;
    /** Memory cells, by (object, absolute offset). */
    std::vector<MemCell> mem;
    /** Vtable stores, by (object, offset). */
    std::vector<VptrStore> vptr_stores;
    /** `this` calls, in emission order. */
    std::vector<ThisCall> this_calls;
    /** Events, in emission order. */
    std::vector<ObjectEvent> events;

    /** Back to the entry state, keeping the buffers. */
    void clear();

    /** The vtable stored at @p off of object @p obj, or nullptr. */
    const std::uint32_t* vptr_at(int obj, std::int32_t off) const;

    /** Object @p obj's vtable stores, ascending by offset. */
    std::span<const VptrStore> vptr_stores_of(int obj) const;

    /** The value in cell (@p obj, @p off), or nullptr. */
    const AbsValue* cell(int obj, std::int32_t off) const;

    /** The outgoing argument in @p slot, or nullptr. */
    const AbsValue* out_arg(int slot) const;

    /** The function's own `this` object, or -1. */
    int this_object() const;
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
    std::span<const std::uint32_t> owners(std::uint32_t func) const;

  private:
    /** Ascending by address. */
    std::vector<VTableInfo> vtables_;
    /** Function addresses of the slot owner table, ascending, and
     *  parallel to them the vtables holding each (scan order). */
    std::vector<std::uint32_t> owner_funcs_;
    std::vector<std::uint32_t> owner_vtables_;
};

/**
 * One object's events at a path end, ready to be cut into tracelets
 * wherever the caller keeps them.
 */
class ObjectEvents {
  public:
    ObjectEvents(const AbsState& st, int obj, const SymExecConfig& config);

    /**
     * Append the object's tracelets to @p out: disjoint chunks of
     * tracelet_len, or sliding windows when configured and the
     * sequence is longer than one window. Each tracelet is built once,
     * in place.
     */
    void cut_into(std::vector<Tracelet>& out) const;

  private:
    const AbsState& st_;
    int obj_;
    const SymExecConfig& config_;
};

/** The abstract semantics of one function body. */
class Transfer {
  public:
    /**
     * @param image           the image the function belongs to
     * @param vtables         its discovered vtables
     * @param config          tracelet shape and attribution knobs
     * @param this_callees    callees whose first argument is `this`,
     *                        sorted ascending
     * @param fn_addr         entry address of the function
     * @param arg0_is_object  model the function's own first argument
     *                        as an abstract object
     * @param record_events   emit events and `this` calls; off for a
     *                        run that only reads vptr stores (the
     *                        ctor probe), where nothing else matters
     */
    Transfer(const bir::BinaryImage& image, const VTableIndex& vtables,
             const SymExecConfig& config,
             const std::vector<std::uint32_t>& this_callees,
             std::uint32_t fn_addr, bool arg0_is_object,
             bool record_events = true);

    /**
     * Apply @p in to @p st, emitting its Table-1 events. Control ops
     * (Jmp, Jz, Jnz, Ret) change nothing; RetVal only emits `ret`.
     * Branch decisions and path ends belong to the caller.
     */
    void step(AbsState& st, const bir::Instr& in) const;

    /**
     * End a path: for every object of @p st with events, in creation
     * order, call @p sink(type, events) once per attributed type --
     * the vtable stored at offset 0, else, for the function's own
     * `this`, every vtable owning the function (or only the first
     * under !attribute_shared_methods_to_all) -- or once with nullopt
     * for a `this` object no type covers. The sink cuts the
     * ObjectEvents into its own tracelet list.
     */
    template <class Sink>
    void finish_path(const AbsState& st, Sink&& sink) const;

    /**
     * The vtable whose start @p base holds, when the path itself
     * established it: a Vptr of an in-path vptr store, or a Const
     * vtable address. nullptr otherwise.
     */
    const VTableInfo* known_vtable(const AbsValue& base) const;

  private:
    void
    emit(AbsState& st, int obj, Event e) const
    {
        if (!record_events_)
            return;
        st.events.push_back({obj, e});
        ++st.objects[static_cast<std::size_t>(obj)].num_events;
    }

    void call_effects(AbsState& st, std::uint32_t callee,
                      bool callee_known) const;

    const bir::BinaryImage& image_;
    const VTableIndex& vtables_;
    const SymExecConfig& config_;
    const std::vector<std::uint32_t>& this_callees_;
    const std::span<const std::uint32_t> owners_;
    /** config.attribute_shared_methods_to_all. */
    const bool attribute_to_all_owners_;
    const bool arg0_is_object_;
    const bool record_events_;
};

namespace detail {

/** First cell of the (obj, off)-sorted range [@p first, @p last) not
 *  below (@p obj, @p off). */
template <class It>
It
lower_bound_cell(It first, It last, int obj, std::int32_t off)
{
    return std::lower_bound(
        first, last, std::pair{obj, off},
        [](const auto& cell, const std::pair<int, std::int32_t>& key) {
            return std::pair{cell.obj, cell.off} < key;
        });
}

/** The cell (@p obj, @p off) of the sorted @p cells, or nullptr. */
template <class Cell>
const Cell*
find_cell(const std::vector<Cell>& cells, int obj, std::int32_t off)
{
    auto it = lower_bound_cell(cells.begin(), cells.end(), obj, off);
    return it != cells.end() && it->obj == obj && it->off == off ? &*it
                                                                 : nullptr;
}

/** Set cell (@p obj, @p off) of the sorted @p cells to @p cell,
 *  inserting it in key order when absent. */
template <class Cell>
void
put_cell(std::vector<Cell>& cells, const Cell& cell)
{
    auto it = lower_bound_cell(cells.begin(), cells.end(), cell.obj,
                               cell.off);
    if (it != cells.end() && it->obj == cell.obj && it->off == cell.off)
        *it = cell;
    else
        cells.insert(it, cell);
}

} // namespace detail

inline void
AbsState::clear()
{
    regs.fill(AbsValue{});
    out_args.clear();
    last_ret = AbsValue{};
    objects.clear();
    mem.clear();
    vptr_stores.clear();
    this_calls.clear();
    events.clear();
}

inline const std::uint32_t*
AbsState::vptr_at(int obj, std::int32_t off) const
{
    const VptrStore* s = detail::find_cell(vptr_stores, obj, off);
    return s ? &s->vtable : nullptr;
}

inline std::span<const VptrStore>
AbsState::vptr_stores_of(int obj) const
{
    auto lo = detail::lower_bound_cell(
        vptr_stores.begin(), vptr_stores.end(), obj,
        std::numeric_limits<std::int32_t>::min());
    auto hi = lo;
    while (hi != vptr_stores.end() && hi->obj == obj)
        ++hi;
    return {lo, hi};
}

inline const AbsValue*
AbsState::cell(int obj, std::int32_t off) const
{
    const MemCell* c = detail::find_cell(mem, obj, off);
    return c ? &c->value : nullptr;
}

inline const AbsValue*
AbsState::out_arg(int slot) const
{
    for (const OutArg& arg : out_args) {
        if (arg.slot == slot)
            return &arg.value;
    }
    return nullptr;
}

inline int
AbsState::this_object() const
{
    int found = -1;
    for (std::size_t i = 0; i < objects.size(); ++i) {
        if (objects[i].is_this_param)
            found = static_cast<int>(i);
    }
    return found;
}

template <class Sink>
void
Transfer::finish_path(const AbsState& st, Sink&& sink) const
{
    for (std::size_t i = 0; i < st.objects.size(); ++i) {
        const AbsObject& obj = st.objects[i];
        if (obj.num_events == 0)
            continue;
        const int o = static_cast<int>(i);
        const ObjectEvents events(st, o, config_);
        if (const std::uint32_t* primary = st.vptr_at(o, 0)) {
            sink(std::optional<std::uint32_t>(*primary), events);
        } else if (obj.is_this_param) {
            if (owners_.empty()) {
                sink(std::optional<std::uint32_t>(), events);
            } else if (attribute_to_all_owners_) {
                for (std::uint32_t type : owners_)
                    sink(std::optional<std::uint32_t>(type), events);
            } else {
                sink(std::optional<std::uint32_t>(owners_.front()),
                     events);
            }
        }
    }
}

// Defined here so both interpreters inline the per-instruction path.

inline void
Transfer::call_effects(AbsState& st, std::uint32_t callee,
                       bool callee_known) const
{
    for (const auto& [slot, val] : st.out_args) {
        if (val.kind != AbsValue::Kind::Obj)
            continue;
        if (slot == 0 && callee_known &&
            std::binary_search(this_callees_.begin(),
                               this_callees_.end(), callee)) {
            emit(st, val.obj, Event{EventKind::PassedThis, 0, 0});
            if (record_events_)
                st.this_calls.push_back({val.obj, val.off, callee});
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
            const std::uint32_t* stored = st.vptr_at(base.obj, abs);
            bool vptr_slot =
                stored != nullptr ||
                (st.objects[static_cast<std::size_t>(base.obj)]
                     .is_this_param &&
                 abs == 0);
            if (vptr_slot) {
                // Reading the object's vptr: no field event.
                out.kind = Kind::Vptr;
                out.obj = base.obj;
                out.off = abs;
                if (stored != nullptr)
                    out.imm = *stored;
            } else {
                emit(st, base.obj,
                     Event{EventKind::ReadField,
                           static_cast<std::uint32_t>(abs), 0});
                if (const AbsValue* cell = st.cell(base.obj, abs))
                    out = *cell;
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
            const int obj = base.obj;
            std::int32_t abs = base.off + static_cast<std::int32_t>(in.imm);
            if (val.kind == Kind::Const &&
                vtables_.starting_at(val.imm) != nullptr) {
                // vptr assignment: types the object.
                detail::put_cell(st.vptr_stores,
                                 VptrStore{obj, abs, val.imm});
            } else {
                emit(st, obj,
                     Event{EventKind::WriteField,
                           static_cast<std::uint32_t>(abs), 0});
            }
            detail::put_cell(st.mem, MemCell{obj, abs, val});
        }
        break;
      }
      case Op::SetArg: {
        auto it = std::lower_bound(
            st.out_args.begin(), st.out_args.end(), int{in.a},
            [](const OutArg& arg, int slot) { return arg.slot < slot; });
        if (it != st.out_args.end() && it->slot == in.a)
            it->value = st.regs[in.b];
        else
            st.out_args.insert(it, {in.a, st.regs[in.b]});
        break;
      }
      case Op::GetArg: {
        AbsValue v = AbsValue::unknown();
        if (in.b == 0 && arg0_is_object_) {
            // Locate or create the `this` object.
            int found = st.this_object();
            if (found < 0) {
                st.objects.push_back(AbsObject{true, 0});
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
            const AbsValue* arg0 = st.out_arg(0);
            if (receiver < 0 && arg0 != nullptr &&
                arg0->kind == Kind::Obj) {
                receiver = arg0->obj;
                aux = static_cast<std::uint32_t>(arg0->off);
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
