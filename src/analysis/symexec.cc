#include "analysis/symexec.h"

#include <deque>

namespace rock::analysis {

using bir::Instr;
using bir::Op;

namespace {

/** Execution state of one path. */
struct PathState {
    std::size_t pc = 0;
    int steps = 0;
    std::map<std::size_t, int> backjumps;
    AbsState abs;
};

} // namespace

SymbolicExecutor::SymbolicExecutor(const bir::BinaryImage& image,
                                   const std::vector<VTableInfo>& vtables,
                                   const SymExecConfig& config)
    : image_(image), config_(config), vtables_(vtables)
{
}

FunctionAnalysis
SymbolicExecutor::run(const bir::FunctionEntry& fn,
                      const std::set<std::uint32_t>& this_callees,
                      bool arg0_is_object) const
{
    return run(fn, this_callees, arg0_is_object,
               image_.decode_function(fn));
}

FunctionAnalysis
SymbolicExecutor::run(const bir::FunctionEntry& fn,
                      const std::set<std::uint32_t>& this_callees,
                      bool arg0_is_object,
                      const std::vector<Instr>& body) const
{
    FunctionAnalysis result;
    if (body.empty())
        return result;

    const Transfer transfer(image_, vtables_, config_, this_callees,
                            fn.addr, arg0_is_object);

    // Finalize one completed path: attribute tracelets + evidence.
    auto finish_path = [&](const PathState& st) {
        ++result.paths;
        transfer.finish_path(
            st.abs, [&](std::optional<std::uint32_t> type,
                        const std::vector<Tracelet>& windows) {
                auto& out =
                    type ? result.tracelets[*type] : result.untyped_this;
                out.insert(out.end(), windows.begin(), windows.end());
            });
        for (const AbsObject& obj : st.abs.objects) {
            if (!obj.vptr_stores.empty()) {
                result.evidence.push_back(ObjectEvidence{
                    obj.vptr_stores, obj.this_calls,
                    obj.is_this_param});
            }
        }
    };

    // Depth-first exploration over forked states.
    std::deque<PathState> stack;
    stack.emplace_back();

    while (!stack.empty() && result.paths < config_.max_paths) {
        PathState st = std::move(stack.back());
        stack.pop_back();

        bool path_done = false;
        while (!path_done) {
            if (st.pc >= body.size() || st.steps >= config_.max_steps) {
                finish_path(st);
                break;
            }
            const Instr& instr = body[st.pc];
            ++st.steps;
            std::size_t next = st.pc + 1;

            transfer.step(st.abs, instr);
            switch (instr.op) {
              case Op::RetVal:
              case Op::Ret:
                finish_path(st);
                path_done = true;
                break;
              case Op::Jmp:
                next = (instr.imm - fn.addr) / bir::kInstrSize;
                break;
              case Op::Jnz:
              case Op::Jz: {
                std::size_t target =
                    (instr.imm - fn.addr) / bir::kInstrSize;
                const AbsValue& cond = st.abs.regs[instr.a];
                bool taken_is_backward = target <= st.pc;
                if (cond.kind == AbsValue::Kind::Const) {
                    bool taken = (instr.op == Op::Jnz)
                                     ? cond.imm != 0
                                     : cond.imm == 0;
                    if (taken)
                        next = target;
                } else {
                    int& count = st.backjumps[st.pc];
                    bool may_take =
                        !taken_is_backward ||
                        count < config_.max_backjumps;
                    bool room = static_cast<int>(stack.size()) +
                                    result.paths <
                                config_.max_paths;
                    if (may_take && room) {
                        // Fork: one state takes the branch.
                        PathState taken = st;
                        if (taken_is_backward)
                            ++taken.backjumps[st.pc];
                        taken.pc = target;
                        stack.push_back(std::move(taken));
                    } else if (may_take && !room) {
                        // No room to fork; prefer fall-through.
                    }
                }
                break;
              }
              default:
                break;
            }

            if (!path_done)
                st.pc = next;
        }
    }

    return result;
}

} // namespace rock::analysis
