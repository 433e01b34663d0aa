#include "toyc/sema.h"

#include <algorithm>
#include <set>

#include "bir/isa.h"
#include "support/error.h"

namespace rock::toyc {

using support::fatal;

namespace {

/** Apply @p cls's own method declarations as overrides over @p slots. */
void
apply_overrides(std::vector<VtableSlot>& slots, const ClassDecl& cls)
{
    for (const auto& method : cls.methods) {
        for (auto& slot : slots) {
            if (slot.method == method.name) {
                slot.pure = method.pure;
                slot.impl_class = method.pure ? "" : cls.name;
            }
        }
    }
}

} // namespace

Sema::Sema(const Program& program) : program_(&program)
{
    // Unique class names.
    std::set<std::string> names;
    for (const auto& cls : program.classes) {
        if (!names.insert(cls.name).second)
            fatal("duplicate class '" + cls.name + "'");
    }
    std::set<std::string> usage_names;
    for (const auto& fn : program.usages) {
        if (!usage_names.insert(fn.name).second)
            fatal("duplicate usage function '" + fn.name + "'");
    }

    // Topological order over the inheritance DAG (parents first).
    std::map<std::string, int> state; // 0=unvisited 1=visiting 2=done
    std::vector<const ClassDecl*> stack;
    auto visit = [&](auto&& self, const ClassDecl& cls) -> void {
        int& st = state[cls.name];
        if (st == 2)
            return;
        if (st == 1)
            fatal("inheritance cycle through '" + cls.name + "'");
        st = 1;
        for (const auto& parent : cls.parents) {
            const ClassDecl* pd = program.find_class(parent);
            if (!pd) {
                fatal("class '" + cls.name + "' derives from unknown '" +
                      parent + "'");
            }
            self(self, *pd);
        }
        st = 2;
        topo_order_.push_back(cls.name);
    };
    for (const auto& cls : program.classes)
        visit(visit, cls);

    build_layouts();
    validate_bodies();
}

void
Sema::build_layouts()
{
    for (const auto& name : topo_order_) {
        const ClassDecl& cls = *program_->find_class(name);
        ClassLayout lay;
        lay.decl = &cls;

        // Ancestors: BFS over parents, nearest first.
        std::vector<std::string> queue = cls.parents;
        std::set<std::string> seen;
        while (!queue.empty()) {
            std::string cur = queue.front();
            queue.erase(queue.begin());
            if (!seen.insert(cur).second)
                continue;
            lay.ancestors.push_back(cur);
            const ClassLayout& pl = layouts_.at(cur);
            for (const auto& anc : pl.decl->parents)
                queue.push_back(anc);
        }

        std::uint32_t offset = 0;
        if (cls.parents.empty()) {
            // Fresh primary branch: vptr at 0.
            SubobjectBranch primary;
            primary.offset = 0;
            lay.branches.push_back(primary);
            offset = bir::kWordSize;
        } else {
            // Concatenate parent subobjects, MSVC-style.
            for (const auto& parent : cls.parents) {
                const ClassLayout& pl = layouts_.at(parent);
                for (const auto& pbranch : pl.branches) {
                    SubobjectBranch branch = pbranch;
                    branch.offset += offset;
                    if (branch.base.empty())
                        branch.base = parent;
                    apply_overrides(branch.slots, cls);
                    lay.branches.push_back(branch);
                }
                // Inherited fields keep their offsets within the
                // parent subobject.
                for (std::uint32_t foff : pl.field_offsets)
                    lay.field_offsets.push_back(offset + foff);
                offset += pl.size;
            }
        }

        // New virtual methods extend the primary branch.
        for (const auto& method : cls.methods) {
            bool overrides = false;
            for (const auto& branch : lay.branches) {
                for (const auto& slot : branch.slots) {
                    if (slot.method == method.name)
                        overrides = true;
                }
            }
            if (!overrides) {
                VtableSlot slot;
                slot.method = method.name;
                slot.pure = method.pure;
                slot.impl_class = method.pure ? "" : cls.name;
                lay.branches[0].slots.push_back(slot);
            }
        }

        // Own fields go last.
        for (int f = 0; f < cls.num_fields; ++f) {
            lay.field_offsets.push_back(offset);
            offset += bir::kWordSize;
        }
        lay.size = offset;

        // Abstract when any slot is still pure.
        for (const auto& branch : lay.branches) {
            for (const auto& slot : branch.slots) {
                if (slot.pure)
                    lay.abstract = true;
            }
        }

        // Method resolution: earlier branches win.
        for (std::size_t b = 0; b < lay.branches.size(); ++b) {
            const auto& branch = lay.branches[b];
            for (std::size_t s = 0; s < branch.slots.size(); ++s) {
                lay.method_slots.try_emplace(
                    branch.slots[s].method,
                    std::make_pair(static_cast<int>(b),
                                   static_cast<int>(s)));
            }
        }

        layouts_.emplace(name, std::move(lay));
    }
}

void
Sema::validate_stmts(const std::vector<Stmt>& body,
                     std::map<std::string, std::string>& vars,
                     const std::string& context)
{
    auto var_class = [&](const std::string& var) -> const std::string& {
        auto it = vars.find(var);
        if (it == vars.end())
            fatal(context + ": variable '" + var + "' is undefined");
        return it->second;
    };

    for (const auto& stmt : body) {
        switch (stmt.kind) {
          case StmtKind::NewObject: {
            const ClassDecl* cls = program_->find_class(stmt.class_name);
            if (!cls) {
                fatal(context + ": new of unknown class '" +
                      stmt.class_name + "'");
            }
            if (layouts_.at(stmt.class_name).abstract) {
                fatal(context + ": cannot instantiate abstract class '" +
                      stmt.class_name + "'");
            }
            vars[stmt.var] = stmt.class_name;
            break;
          }
          case StmtKind::VirtCall: {
            const std::string& cls = var_class(stmt.var);
            const ClassLayout& lay = layouts_.at(cls);
            if (!lay.method_slots.count(stmt.method)) {
                fatal(context + ": class '" + cls + "' has no method '" +
                      stmt.method + "'");
            }
            break;
          }
          case StmtKind::ReadField:
          case StmtKind::WriteField: {
            const std::string& cls = var_class(stmt.var);
            const ClassLayout& lay = layouts_.at(cls);
            if (stmt.field < 0 ||
                static_cast<std::size_t>(stmt.field) >=
                    lay.field_offsets.size()) {
                fatal(context + ": field index " +
                      std::to_string(stmt.field) + " out of range for '" +
                      cls + "'");
            }
            break;
          }
          case StmtKind::CallFree: {
            const UsageFunc* callee = program_->find_usage(stmt.callee);
            if (!callee) {
                fatal(context + ": call to unknown function '" +
                      stmt.callee + "'");
            }
            if (callee->params.size() != stmt.args.size()) {
                fatal(context + ": call to '" + stmt.callee + "' with " +
                      std::to_string(stmt.args.size()) + " args, expects " +
                      std::to_string(callee->params.size()));
            }
            for (const auto& arg : stmt.args)
                var_class(arg);
            break;
          }
          case StmtKind::DeleteObject:
          case StmtKind::ReturnObject:
            var_class(stmt.var);
            break;
          case StmtKind::Branch: {
            validate_stmts(stmt.then_body, vars, context);
            validate_stmts(stmt.else_body, vars, context);
            break;
          }
          case StmtKind::Loop:
            validate_stmts(stmt.then_body, vars, context);
            break;
        }
    }
}

void
Sema::validate_bodies()
{
    for (const auto& cls : program_->classes) {
        for (const auto& method : cls.methods) {
            if (method.pure && !method.body.empty()) {
                fatal("pure method '" + cls.name + "::" + method.name +
                      "' has a body");
            }
            std::map<std::string, std::string> vars;
            vars["this"] = cls.name;
            validate_stmts(method.body, vars,
                           cls.name + "::" + method.name);
        }
        {
            // Constructor/destructor bodies are inlined into arbitrary
            // callers; restrict them to `this`-directed statements so
            // the inliner's register discipline holds.
            auto check_inline_safe = [&](const std::vector<Stmt>& body,
                                         const std::string& what) {
                auto rec = [&](auto&& self,
                               const std::vector<Stmt>& stmts) -> void {
                    for (const auto& s : stmts) {
                        if (s.kind == StmtKind::NewObject ||
                            s.kind == StmtKind::ReturnObject) {
                            fatal(cls.name + "::" + what +
                                  ": NewObject/ReturnObject not allowed "
                                  "in ctor/dtor bodies");
                        }
                        self(self, s.then_body);
                        self(self, s.else_body);
                    }
                };
                rec(rec, body);
            };
            check_inline_safe(cls.ctor_body, "ctor");
            check_inline_safe(cls.dtor_body, "dtor");
            std::map<std::string, std::string> vars;
            vars["this"] = cls.name;
            validate_stmts(cls.ctor_body, vars, cls.name + "::ctor");
            validate_stmts(cls.dtor_body, vars, cls.name + "::dtor");
        }
    }
    for (const auto& fn : program_->usages) {
        std::map<std::string, std::string> vars;
        for (const auto& param : fn.params) {
            if (!program_->find_class(param.class_name)) {
                fatal("usage '" + fn.name + "' parameter '" + param.var +
                      "' has unknown class '" + param.class_name + "'");
            }
            vars[param.var] = param.class_name;
        }
        validate_stmts(fn.body, vars, fn.name);
    }
}

const ClassLayout&
Sema::layout(const std::string& cls) const
{
    auto it = layouts_.find(cls);
    if (it == layouts_.end())
        fatal("unknown class '" + cls + "'");
    return it->second;
}

std::size_t
Sema::num_fields(const std::string& cls) const
{
    return layout(cls).field_offsets.size();
}

} // namespace rock::toyc
