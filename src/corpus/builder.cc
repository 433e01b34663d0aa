#include "corpus/builder.h"

#include "support/error.h"

namespace rock::corpus {

using toyc::ClassDecl;
using toyc::MethodDecl;
using toyc::Stmt;
using toyc::UsageFunc;

void
distinct_tag(std::vector<Stmt>& body, int id, int field)
{
    body.push_back(Stmt::write_field("this", field));
    int bits = id + 1;
    while (bits > 0) {
        if (bits & 1)
            body.push_back(Stmt::read_field("this", field));
        else
            body.push_back(Stmt::write_field("this", field));
        bits >>= 1;
    }
}

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name = std::move(name);
}

ClassDecl&
ProgramBuilder::find(const std::string& name)
{
    for (auto& cls : prog_.classes) {
        if (cls.name == name)
            return cls;
    }
    support::fatal("builder: unknown class '" + name + "'");
}

ProgramBuilder&
ProgramBuilder::cls(const std::string& name,
                    std::vector<std::string> parents,
                    std::vector<std::string> new_methods,
                    std::vector<std::string> overrides,
                    int num_fields)
{
    ClassDecl decl;
    decl.name = name;
    decl.parents = std::move(parents);
    decl.num_fields = num_fields;

    // The tag field: this class's own last field (a distinct byte
    // offset from any sibling with a different size), falling back to
    // the first inherited field. Tagging anchors method bodies to a
    // per-class location so (a) unrelated methods never fold together
    // by accident -- identical-COMDAT noise, the paper's error source
    // 1, is injected explicitly via method_body() where a benchmark
    // wants it -- and (b) sibling types stay behaviorally separable.
    int inherited_fields = 0;
    {
        auto count_fields = [this](auto&& self,
                                   const std::string& cls) -> int {
            const toyc::ClassDecl* d = prog_.find_class(cls);
            ROCK_ASSERT(d != nullptr, "unknown parent class");
            int total = d->num_fields;
            for (const auto& p : d->parents)
                total += self(self, p);
            return total;
        };
        for (const auto& p : decl.parents)
            inherited_fields += count_fields(count_fields, p);
    }
    int tag_field = num_fields > 0 ? inherited_fields + num_fields - 1
                                   : 0;

    for (auto& m : new_methods) {
        MethodDecl method;
        method.name = std::move(m);
        distinct_tag(method.body, tag_count_++, tag_field);
        decl.methods.push_back(std::move(method));
    }
    for (auto& m : overrides) {
        MethodDecl method;
        method.name = std::move(m);
        distinct_tag(method.body, tag_count_++, tag_field);
        decl.methods.push_back(std::move(method));
    }
    prog_.classes.push_back(std::move(decl));
    return *this;
}

ProgramBuilder&
ProgramBuilder::pure(const std::string& name, const std::string& method)
{
    for (auto& m : find(name).methods) {
        if (m.name == method) {
            m.pure = true;
            m.body.clear();
            return *this;
        }
    }
    support::fatal("builder: class '" + name + "' has no method '" +
                   method + "'");
}

ProgramBuilder&
ProgramBuilder::method_body(const std::string& cls,
                            const std::string& method,
                            std::vector<Stmt> body)
{
    for (auto& m : find(cls).methods) {
        if (m.name == method) {
            for (auto& stmt : body)
                m.body.push_back(std::move(stmt));
            return *this;
        }
    }
    support::fatal("builder: class '" + cls + "' has no method '" +
                   method + "'");
}

ProgramBuilder&
ProgramBuilder::ctor_body(const std::string& cls, std::vector<Stmt> body)
{
    auto& decl = find(cls);
    for (auto& stmt : body)
        decl.ctor_body.push_back(std::move(stmt));
    return *this;
}

ProgramBuilder&
ProgramBuilder::motif(const std::string& cls,
                      std::vector<std::string> methods)
{
    find(cls); // existence check
    motifs_.emplace_back(cls, std::move(methods));
    return *this;
}

std::vector<std::string>
ProgramBuilder::full_behavior(const std::string& cls) const
{
    // Collect the ancestor chain (single-inheritance primary chain),
    // root first.
    std::vector<std::string> chain;
    std::string cur = cls;
    while (true) {
        chain.insert(chain.begin(), cur);
        const toyc::ClassDecl* decl = prog_.find_class(cur);
        ROCK_ASSERT(decl != nullptr, "unknown class in behavior chain");
        if (decl->parents.empty())
            break;
        cur = decl->parents.front();
    }
    std::vector<std::string> behavior;
    for (const auto& ancestor : chain) {
        for (const auto& [owner, methods] : motifs_) {
            if (owner == ancestor) {
                behavior.insert(behavior.end(), methods.begin(),
                                methods.end());
            }
        }
    }
    return behavior;
}

ProgramBuilder&
ProgramBuilder::add_scenario(const std::string& cls,
                             std::vector<Stmt> extra,
                             const std::string& suffix)
{
    UsageFunc fn;
    fn.name = "use_" + cls + suffix;
    if (suffix.empty()) {
        fn.name += '_';
        fn.name += std::to_string(scenario_count_++);
    }
    fn.body.push_back(Stmt::new_object("obj", cls));
    for (const auto& method : full_behavior(cls))
        fn.body.push_back(Stmt::virt_call("obj", method));
    for (auto& stmt : extra)
        fn.body.push_back(std::move(stmt));
    prog_.usages.push_back(std::move(fn));
    return *this;
}

ProgramBuilder&
ProgramBuilder::usage(UsageFunc fn)
{
    prog_.usages.push_back(std::move(fn));
    return *this;
}

ProgramBuilder&
ProgramBuilder::standard_scenarios(int per_class)
{
    for (const auto& cls : prog_.classes) {
        bool is_abstract = false;
        for (const auto& m : cls.methods) {
            if (m.pure)
                is_abstract = true;
        }
        if (is_abstract)
            continue;
        std::vector<std::string> behavior = full_behavior(cls.name);
        if (behavior.empty())
            continue;
        for (int k = 0; k < per_class; ++k) {
            UsageFunc fn;
            fn.name = "use_" + cls.name + "_v" + std::to_string(k);
            fn.body.push_back(Stmt::new_object("obj", cls.name));
            for (const auto& method : behavior)
                fn.body.push_back(Stmt::virt_call("obj", method));
            for (int extra = 0; extra < k; ++extra) {
                fn.body.push_back(
                    Stmt::virt_call("obj", behavior.back()));
            }
            prog_.usages.push_back(std::move(fn));
        }
    }
    return *this;
}

ProgramBuilder&
ProgramBuilder::noise_method(const std::string& cls,
                             const std::string& method, int noise_id)
{
    MethodDecl decl;
    decl.name = method;
    // Starts with a read so a noise body can never coincide with a
    // distinct_tag body (which always starts with a write).
    decl.body.push_back(Stmt::read_field("this", 0));
    int bits = noise_id + 1;
    while (bits > 0) {
        if (bits & 1)
            decl.body.push_back(Stmt::read_field("this", 0));
        else
            decl.body.push_back(Stmt::write_field("this", 0));
        bits >>= 1;
    }
    find(cls).methods.push_back(std::move(decl));
    return *this;
}

toyc::Program
ProgramBuilder::build()
{
    return prog_;
}

} // namespace rock::corpus
