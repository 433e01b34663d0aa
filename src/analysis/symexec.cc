#include "analysis/symexec.h"

#include <algorithm>

namespace rock::analysis {

using bir::Instr;
using bir::Op;

namespace {

/** Execution state of one path. */
struct PathState {
    std::size_t pc = 0;
    int steps = 0;
    /** Backward branches taken so far, per branch slot, by slot. */
    std::vector<std::pair<std::size_t, int>> backjumps;
    AbsState abs;

    /** Back to the function entry, keeping the buffers. */
    void
    clear()
    {
        pc = 0;
        steps = 0;
        backjumps.clear();
        abs.clear();
    }

    /** Backward jumps taken so far from slot @p from. */
    int
    backjumps_from(std::size_t from) const
    {
        auto it = std::lower_bound(
            backjumps.begin(), backjumps.end(), from,
            [](const auto& entry, std::size_t pc) {
                return entry.first < pc;
            });
        return it != backjumps.end() && it->first == from ? it->second
                                                          : 0;
    }

    /** Count one more backward jump from slot @p from. */
    void
    take_backjump(std::size_t from)
    {
        auto it = std::lower_bound(
            backjumps.begin(), backjumps.end(), from,
            [](const auto& entry, std::size_t pc) {
                return entry.first < pc;
            });
        if (it != backjumps.end() && it->first == from)
            ++it->second;
        else
            backjumps.insert(it, {from, 1});
    }
};

/**
 * The pending paths of one depth-first exploration, plus the path
 * being run. One per thread, reused from function to function: a
 * fork copies the running path into a slot whose buffers already
 * grew for an earlier path, and a pop swaps, so exploration stops
 * allocating once the slots fit the largest state seen.
 */
class PathStack {
  public:
    /** One pending path: the function entry. */
    void
    start()
    {
        if (slots_.empty())
            slots_.emplace_back();
        slots_[0].clear();
        depth_ = 1;
    }

    std::size_t pending() const { return depth_; }

    /** Take the most recently pushed path as the running one. */
    PathState&
    pop()
    {
        std::swap(running_, slots_[--depth_]);
        return running_;
    }

    /** Push a copy of @p st as a pending path and return it. */
    PathState&
    push(const PathState& st)
    {
        if (depth_ == slots_.size())
            slots_.push_back(st);
        else
            slots_[depth_] = st;
        return slots_[depth_++];
    }

  private:
    std::vector<PathState> slots_;
    std::size_t depth_ = 0;
    PathState running_;
};

PathStack&
thread_path_stack()
{
    thread_local PathStack stack;
    return stack;
}

/**
 * Depth-first exploration over forked states: call
 * @p on_path_end(state) for every completed path, in completion
 * order, until it returns true or max_paths paths have completed.
 * @return the number of completed paths.
 */
template <class OnPathEnd>
int
explore(const SymExecConfig& config, const bir::FunctionEntry& fn,
        const std::vector<Instr>& body, const Transfer& transfer,
        OnPathEnd&& on_path_end)
{
    int paths = 0;
    PathStack& stack = thread_path_stack();
    stack.start();

    while (stack.pending() > 0 && paths < config.max_paths) {
        PathState& st = stack.pop();

        while (true) {
            if (st.pc >= body.size() || st.steps >= config.max_steps) {
                ++paths;
                if (on_path_end(st.abs))
                    return paths;
                break;
            }
            const Instr& instr = body[st.pc];
            ++st.steps;
            std::size_t next = st.pc + 1;

            transfer.step(st.abs, instr);
            if (instr.op == Op::RetVal || instr.op == Op::Ret) {
                ++paths;
                if (on_path_end(st.abs))
                    return paths;
                break;
            }
            if (instr.op == Op::Jmp) {
                next = (instr.imm - fn.addr) / bir::kInstrSize;
            } else if (instr.op == Op::Jnz || instr.op == Op::Jz) {
                std::size_t target =
                    (instr.imm - fn.addr) / bir::kInstrSize;
                const AbsValue& cond = st.abs.regs[instr.a];
                bool taken_is_backward = target <= st.pc;
                if (cond.kind == AbsValue::Kind::Const) {
                    bool taken = (instr.op == Op::Jnz) ? cond.imm != 0
                                                       : cond.imm == 0;
                    if (taken)
                        next = target;
                } else {
                    bool may_take =
                        !taken_is_backward ||
                        st.backjumps_from(st.pc) < config.max_backjumps;
                    bool room = static_cast<int>(stack.pending()) + paths <
                                config.max_paths;
                    // Fork: one state takes the branch. With no room
                    // to fork, the path falls through.
                    if (may_take && room) {
                        PathState& taken = stack.push(st);
                        if (taken_is_backward)
                            taken.take_backjump(st.pc);
                        taken.pc = target;
                    }
                }
            }
            st.pc = next;
        }
    }
    return paths;
}

} // namespace

SymbolicExecutor::SymbolicExecutor(const bir::BinaryImage& image,
                                   const std::vector<VTableInfo>& vtables,
                                   const SymExecConfig& config)
    : image_(image), config_(config), vtables_(vtables)
{
}

FunctionAnalysis
SymbolicExecutor::run(const bir::FunctionEntry& fn,
                      const std::vector<std::uint32_t>& this_callees,
                      bool arg0_is_object) const
{
    return run(fn, this_callees, arg0_is_object,
               image_.decode_function(fn));
}

FunctionAnalysis
SymbolicExecutor::run(const bir::FunctionEntry& fn,
                      const std::vector<std::uint32_t>& this_callees,
                      bool arg0_is_object,
                      const std::vector<Instr>& body) const
{
    FunctionAnalysis result;
    if (body.empty())
        return result;

    const Transfer transfer(image_, vtables_, config_, this_callees,
                            fn.addr, arg0_is_object);

    // Finalize one completed path: tracelets, cut straight into the
    // result, and evidence.
    auto finish_path = [&](const AbsState& st) {
        transfer.finish_path(
            st, [&](std::optional<std::uint32_t> type,
                    const ObjectEvents& events) {
                events.cut_into(type ? result.tracelets[*type]
                                     : result.untyped_this);
            });
        for (std::size_t o = 0; o < st.objects.size(); ++o) {
            const int obj = static_cast<int>(o);
            std::span<const VptrStore> stores = st.vptr_stores_of(obj);
            if (stores.empty())
                continue;
            ObjectEvidence& ev = result.evidence.emplace_back();
            for (const VptrStore& store : stores)
                ev.vptr_stores.emplace_hint(ev.vptr_stores.end(),
                                            store.off, store.vtable);
            auto calls_of_obj = [obj](const ThisCall& call) {
                return call.obj == obj;
            };
            ev.this_calls.reserve(static_cast<std::size_t>(
                std::count_if(st.this_calls.begin(), st.this_calls.end(),
                              calls_of_obj)));
            for (const ThisCall& call : st.this_calls) {
                if (calls_of_obj(call))
                    ev.this_calls.emplace_back(call.off, call.callee);
            }
            ev.from_this_param = st.objects[o].is_this_param;
        }
        return false;
    };
    result.paths = explore(config_, fn, body, transfer, finish_path);
    return result;
}

std::optional<std::uint32_t>
SymbolicExecutor::probe_ctor(const bir::FunctionEntry& fn,
                             const std::vector<Instr>& body) const
{
    std::optional<std::uint32_t> vtable;
    if (body.empty())
        return vtable;
    // Events are not recorded, so the `this`-callee set is not read.
    static const std::vector<std::uint32_t> no_callees;
    const Transfer transfer(image_, vtables_, config_, no_callees,
                            fn.addr, /*arg0_is_object=*/true,
                            /*record_events=*/false);
    explore(config_, fn, body, transfer, [&](const AbsState& st) {
        int self = st.this_object();
        if (self >= 0) {
            if (const std::uint32_t* stored = st.vptr_at(self, 0))
                vtable = *stored;
        }
        return vtable.has_value();
    });
    return vtable;
}

} // namespace rock::analysis
