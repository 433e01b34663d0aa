#include "rock/hierarchy.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"
#include "support/str.h"

namespace rock::core {

namespace {

/** Insert @p v into the ascending @p list unless it is there. */
void
insert_sorted(std::vector<int>& list, int v)
{
    const auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it == list.end() || *it != v)
        list.insert(it, v);
}

} // namespace

Hierarchy::Hierarchy(std::vector<std::uint32_t> types)
    : types_(std::move(types))
{
    ROCK_ASSERT(std::is_sorted(types_.begin(), types_.end()),
                "hierarchy types must be sorted");
    parent_.assign(types_.size(), -1);
    extra_parents_.assign(types_.size(), {});
    children_.assign(types_.size(), {});
    names_.assign(types_.size(), "");
}

int
Hierarchy::index_of(std::uint32_t vtable_addr) const
{
    auto it =
        std::lower_bound(types_.begin(), types_.end(), vtable_addr);
    if (it != types_.end() && *it == vtable_addr)
        return static_cast<int>(it - types_.begin());
    return -1;
}

std::uint32_t
Hierarchy::type_at(int id) const
{
    ROCK_ASSERT(id >= 0 && id < size(), "node out of range");
    return types_[static_cast<std::size_t>(id)];
}

void
Hierarchy::set_parent(int child, int parent)
{
    ROCK_ASSERT(child >= 0 && child < size(), "child out of range");
    ROCK_ASSERT(parent >= -1 && parent < size(), "parent out of range");
    ROCK_ASSERT(parent != child, "self-parenting");
    const auto c = static_cast<std::size_t>(child);
    const int old = parent_[c];
    parent_[c] = parent;
    // The old parent keeps child in its list while it is still an
    // extra parent of child.
    const auto& extras = extra_parents_[c];
    if (old >= 0 && old != parent &&
        std::find(extras.begin(), extras.end(), old) == extras.end()) {
        auto& list = children_[static_cast<std::size_t>(old)];
        list.erase(std::lower_bound(list.begin(), list.end(), child));
    }
    if (parent >= 0)
        insert_sorted(children_[static_cast<std::size_t>(parent)], child);
}

int
Hierarchy::parent(int child) const
{
    ROCK_ASSERT(child >= 0 && child < size(), "child out of range");
    return parent_[static_cast<std::size_t>(child)];
}

void
Hierarchy::add_extra_parent(int child, int parent)
{
    ROCK_ASSERT(child >= 0 && child < size(), "child out of range");
    ROCK_ASSERT(parent >= 0 && parent < size(), "parent out of range");
    ROCK_ASSERT(parent != child, "self-parenting");
    extra_parents_[static_cast<std::size_t>(child)].push_back(parent);
    insert_sorted(children_[static_cast<std::size_t>(parent)], child);
}

std::vector<int>
Hierarchy::parents(int child) const
{
    std::vector<int> out;
    int p = parent(child);
    if (p >= 0)
        out.push_back(p);
    for (int ep : extra_parents_[static_cast<std::size_t>(child)])
        out.push_back(ep);
    return out;
}

const std::vector<int>&
Hierarchy::children(int node) const
{
    ROCK_ASSERT(node >= 0 && node < size(), "node out of range");
    return children_[static_cast<std::size_t>(node)];
}

std::set<int>
Hierarchy::successors(int node) const
{
    // A bit per node keeps the test for an already-seen child O(1) in
    // graphs where many parents share children.
    std::vector<bool> seen(types_.size());
    std::set<int> out;
    std::vector<int> stack{node};
    while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        for (int child : children(cur)) {
            if (!seen[static_cast<std::size_t>(child)]) {
                seen[static_cast<std::size_t>(child)] = true;
                out.insert(child);
                stack.push_back(child);
            }
        }
    }
    out.erase(node);
    return out;
}

std::vector<int>
Hierarchy::roots() const
{
    std::vector<int> out;
    for (int v = 0; v < size(); ++v) {
        if (parent(v) < 0)
            out.push_back(v);
    }
    return out;
}

void
Hierarchy::set_name(int node, const std::string& name)
{
    ROCK_ASSERT(node >= 0 && node < size(), "node out of range");
    names_[static_cast<std::size_t>(node)] = name;
}

void
Hierarchy::set_names(const std::map<std::uint32_t, std::string>& names)
{
    for (int v = 0; v < size(); ++v) {
        auto it = names.find(type_at(v));
        if (it != names.end())
            set_name(v, it->second);
    }
}

std::string
Hierarchy::name(int node) const
{
    ROCK_ASSERT(node >= 0 && node < size(), "node out of range");
    const std::string& label = names_[static_cast<std::size_t>(node)];
    if (!label.empty())
        return label;
    return "type_" + support::hex(types_[static_cast<std::size_t>(node)]);
}

std::string
Hierarchy::to_string() const
{
    std::ostringstream out;
    auto print = [&](auto&& self, int node, int depth) -> void {
        for (int i = 0; i < depth; ++i)
            out << "  ";
        out << (depth == 0 ? "" : "+- ") << name(node);
        const auto& extras = extra_parents_[static_cast<std::size_t>(node)];
        if (!extras.empty()) {
            out << " (also derives from";
            for (int ep : extras)
                out << " " << name(ep);
            out << ")";
        }
        out << "\n";
        // Recurse over primary-parent children only, so each node is
        // printed exactly once.
        for (int c : children(node)) {
            if (parent(c) == node)
                self(self, c, depth + 1);
        }
    };
    for (int root : roots())
        print(print, root, 0);
    return out.str();
}

std::string
Hierarchy::to_dot(const std::string& graph_name) const
{
    std::ostringstream out;
    out << "digraph \"" << graph_name << "\" {\n";
    out << "  rankdir=TB;\n  node [shape=box];\n";
    for (int v = 0; v < size(); ++v)
        out << "  n" << v << " [label=\"" << name(v) << "\"];\n";
    for (int v = 0; v < size(); ++v) {
        int p = parent(v);
        if (p >= 0)
            out << "  n" << p << " -> n" << v << ";\n";
        for (int ep : extra_parents_[static_cast<std::size_t>(v)]) {
            out << "  n" << ep << " -> n" << v
                << " [style=dashed];\n";
        }
    }
    out << "}\n";
    return out.str();
}

} // namespace rock::core
