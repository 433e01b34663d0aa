#include "analysis/transfer.h"

#include <algorithm>

#include "analysis/symexec.h"

namespace rock::analysis {

VTableIndex::VTableIndex(std::vector<VTableInfo> vtables)
    : vtables_(std::move(vtables))
{
    // scan_vtables order is address order already.
    std::stable_sort(vtables_.begin(), vtables_.end(),
                     [](const VTableInfo& x, const VTableInfo& y) {
                         return x.addr < y.addr;
                     });

    // (function, vtable) per slot, stably by function: each
    // function's owners stay in scan order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> owned;
    for (const VTableInfo& vt : vtables_) {
        for (std::uint32_t fn : vt.slots)
            owned.emplace_back(fn, vt.addr);
    }
    std::stable_sort(owned.begin(), owned.end(),
                     [](const auto& x, const auto& y) {
                         return x.first < y.first;
                     });
    owner_funcs_.reserve(owned.size());
    owner_vtables_.reserve(owned.size());
    for (const auto& [fn, vt] : owned) {
        owner_funcs_.push_back(fn);
        owner_vtables_.push_back(vt);
    }
}

const VTableInfo*
VTableIndex::starting_at(std::uint32_t addr) const
{
    auto it = std::lower_bound(
        vtables_.begin(), vtables_.end(), addr,
        [](const VTableInfo& vt, std::uint32_t a) { return vt.addr < a; });
    return it != vtables_.end() && it->addr == addr ? &*it : nullptr;
}

const VTableInfo*
VTableIndex::covering(std::uint32_t addr, std::uint32_t* slot) const
{
    auto it = std::upper_bound(
        vtables_.begin(), vtables_.end(), addr,
        [](std::uint32_t a, const VTableInfo& vt) { return a < vt.addr; });
    if (it == vtables_.begin())
        return nullptr;
    const VTableInfo& vt = *--it;
    std::uint32_t end =
        vt.addr + static_cast<std::uint32_t>(vt.slots.size()) *
                      bir::kWordSize;
    if (addr < vt.addr || addr >= end)
        return nullptr;
    if ((addr - vt.addr) % bir::kWordSize != 0)
        return nullptr;
    *slot = (addr - vt.addr) / bir::kWordSize;
    return &vt;
}

std::span<const std::uint32_t>
VTableIndex::owners(std::uint32_t func) const
{
    auto [lo, hi] =
        std::equal_range(owner_funcs_.begin(), owner_funcs_.end(), func);
    return {owner_vtables_.data() + (lo - owner_funcs_.begin()),
            static_cast<std::size_t>(hi - lo)};
}

ObjectEvents::ObjectEvents(const AbsState& st, int obj,
                           const SymExecConfig& config)
    : st_(st), obj_(obj), config_(config)
{
}

void
ObjectEvents::cut_into(std::vector<Tracelet>& out) const
{
    const std::size_t len =
        static_cast<std::size_t>(config_.tracelet_len);
    const std::size_t n =
        st_.objects[static_cast<std::size_t>(obj_)].num_events;
    if (config_.sliding_windows && n > len) {
        Tracelet seq;
        seq.reserve(n);
        for (const ObjectEvent& e : st_.events) {
            if (e.obj == obj_)
                seq.push_back(e.event);
        }
        for (std::size_t i = 0; i + len <= n; ++i)
            out.emplace_back(seq.begin() + i, seq.begin() + i + len);
        return;
    }
    // Disjoint chunks, each reserved at its final size.
    std::size_t seen = 0;
    for (const ObjectEvent& e : st_.events) {
        if (e.obj != obj_)
            continue;
        if (seen % len == 0) {
            out.emplace_back();
            out.back().reserve(std::min(len, n - seen));
        }
        out.back().push_back(e.event);
        ++seen;
    }
}

Transfer::Transfer(const bir::BinaryImage& image,
                   const VTableIndex& vtables,
                   const SymExecConfig& config,
                   const std::vector<std::uint32_t>& this_callees,
                   std::uint32_t fn_addr, bool arg0_is_object,
                   bool record_events)
    : image_(image), vtables_(vtables), config_(config),
      this_callees_(this_callees), owners_(vtables.owners(fn_addr)),
      attribute_to_all_owners_(config.attribute_shared_methods_to_all),
      arg0_is_object_(arg0_is_object), record_events_(record_events)
{
}

const VTableInfo*
Transfer::known_vtable(const AbsValue& base) const
{
    bool known = base.kind == AbsValue::Kind::Const ||
                 (base.kind == AbsValue::Kind::Vptr && base.imm != 0);
    return known ? vtables_.starting_at(base.imm) : nullptr;
}

} // namespace rock::analysis
