#include "structural/structural.h"

#include <algorithm>

#include "bir/image.h"
#include "graph/union_find.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/log.h"

namespace rock::structural {

using analysis::ObjectEvidence;
using analysis::VTableInfo;

int
StructuralResult::index_of(std::uint32_t vtable_addr) const
{
    auto it = std::lower_bound(types.begin(), types.end(), vtable_addr);
    if (it != types.end() && *it == vtable_addr)
        return static_cast<int>(it - types.begin());
    return -1;
}

int
StructuralResult::num_families() const
{
    int max_label = -1;
    for (int label : family)
        max_label = std::max(max_label, label);
    return max_label + 1;
}

std::vector<int>
StructuralResult::family_members(int id) const
{
    std::vector<int> members;
    for (std::size_t i = 0; i < family.size(); ++i) {
        if (family[i] == id)
            members.push_back(static_cast<int>(i));
    }
    return members;
}

bool
feasible_derivation(const VTableInfo& child, const VTableInfo& parent)
{
    // Rule 1: the parent cannot have more slots.
    if (parent.slots.size() > child.slots.size())
        return false;
    // Rule 2: the child cannot re-abstract an implemented slot.
    for (std::size_t s = 0; s < parent.slots.size(); ++s) {
        if (child.slots[s] == bir::kPurecallStub &&
            parent.slots[s] != bir::kPurecallStub)
            return false;
    }
    return true;
}

StructuralResult
structural_analysis(const std::vector<VTableInfo>& vtables,
                    const std::vector<ObjectEvidence>& evidence,
                    const std::map<std::uint32_t, std::uint32_t>&
                        ctor_types)
{
    StructuralResult result;
    for (const auto& vt : vtables)
        result.types.push_back(vt.addr);
    std::sort(result.types.begin(), result.types.end());
    const int n = static_cast<int>(result.types.size());

    // Slot arrays indexed like result.types.
    std::vector<const VTableInfo*> info(static_cast<std::size_t>(n));
    for (const auto& vt : vtables) {
        int idx = result.index_of(vt.addr);
        ROCK_ASSERT(idx >= 0, "vtable missing from index");
        info[static_cast<std::size_t>(idx)] = &vt;
    }

    // ---- Rule-3 / multiple-inheritance evidence ------------------------
    // For every constructed object: calls to other types' constructors
    // on a subobject that this object's own construction also typed
    // are parent-constructor calls.
    std::map<int, std::map<int, int>> forced_votes; // child -> parent -> n
    for (const auto& ev : evidence) {
        auto primary = ev.vptr_stores.find(0);
        if (primary == ev.vptr_stores.end())
            continue;
        int primary_idx = result.index_of(primary->second);
        if (primary_idx < 0)
            continue;

        // Secondary vtables (multiple inheritance).
        for (const auto& [off, vt] : ev.vptr_stores) {
            if (off == 0)
                continue;
            int sec_idx = result.index_of(vt);
            if (sec_idx >= 0 && sec_idx != primary_idx)
                result.secondary_of[sec_idx] = primary_idx;
        }
        int distinct_offsets =
            static_cast<int>(ev.vptr_stores.size());
        auto& count = result.parent_counts[primary_idx];
        count = std::max(count, distinct_offsets);

        // Parent-ctor calls: callee must itself be ctor-like and the
        // call must target a subobject this construction also typed
        // (distinguishing it from member initialization).
        for (const auto& [off, callee] : ev.this_calls) {
            auto ctor = ctor_types.find(callee);
            if (ctor == ctor_types.end())
                continue;
            if (!ev.vptr_stores.count(off))
                continue;
            int parent_idx = result.index_of(ctor->second);
            if (parent_idx < 0)
                continue;
            auto typed = ev.vptr_stores.find(off);
            int child_idx = result.index_of(typed->second);
            if (child_idx < 0 || child_idx == parent_idx)
                continue;
            forced_votes[child_idx][parent_idx] += 1;
        }
    }
    for (const auto& [child, votes] : forced_votes) {
        int best_parent = -1;
        int best_votes = 0;
        for (const auto& [parent, count] : votes) {
            if (count > best_votes) {
                best_votes = count;
                best_parent = parent;
            }
        }
        if (best_parent >= 0)
            result.forced_parents[child] = best_parent;
    }

    // ---- Phase I: families ---------------------------------------------
    // Shared virtual-function pointers (excluding _purecall) connect
    // types; rule-3 evidence joins families as well.
    std::map<std::uint32_t, std::vector<int>> func_owners;
    for (int i = 0; i < n; ++i) {
        for (std::uint32_t fn : info[static_cast<std::size_t>(i)]->slots) {
            if (fn == bir::kPurecallStub)
                continue;
            func_owners[fn].push_back(i);
        }
    }
    std::vector<std::pair<int, int>> family_edges;
    for (const auto& [fn, owners] : func_owners) {
        (void)fn;
        for (std::size_t k = 1; k < owners.size(); ++k)
            family_edges.emplace_back(owners[0], owners[k]);
    }
    for (const auto& [child, parent] : result.forced_parents)
        family_edges.emplace_back(child, parent);
    for (const auto& [sec, prim] : result.secondary_of)
        family_edges.emplace_back(sec, prim);
    result.family = graph::connected_components(n, family_edges);

    // ---- Phase II: impossible parents ----------------------------------
    // p runs upward, so every row comes out strictly ascending.
    result.possible_parents.assign(static_cast<std::size_t>(n), {});
    for (int c = 0; c < n; ++c) {
        // A forced parent is the whole candidate set.
        auto forced = result.forced_parents.find(c);
        if (forced != result.forced_parents.end()) {
            result.possible_parents[static_cast<std::size_t>(c)]
                .push_back(forced->second);
            continue;
        }
        for (int p = 0; p < n; ++p) {
            if (p == c || result.family[static_cast<std::size_t>(p)] !=
                              result.family[static_cast<std::size_t>(c)]) {
                continue;
            }
            if (!feasible_derivation(*info[static_cast<std::size_t>(c)],
                                     *info[static_cast<std::size_t>(p)]))
                continue;
            result.possible_parents[static_cast<std::size_t>(c)]
                .push_back(p);
        }
    }

    obs::Registry& reg = obs::Registry::global();
    std::uint64_t feasible = 0;
    for (const auto& cands : result.possible_parents)
        feasible += cands.size();
    reg.counter("structural.types").add(static_cast<std::uint64_t>(n));
    reg.counter("structural.families").add(
        static_cast<std::uint64_t>(result.num_families()));
    reg.counter("structural.forced_parents").add(
        result.forced_parents.size());
    reg.counter("structural.secondary_vtables").add(
        result.secondary_of.size());
    reg.counter("structural.feasible_parent_edges").add(feasible);

    ROCK_LOG_INFO << "structural: " << n << " types, "
                  << result.num_families() << " families, "
                  << result.forced_parents.size() << " forced parents";
    return result;
}

} // namespace rock::structural
