#include "analysis/transfer.h"

#include <algorithm>

#include "analysis/symexec.h"

namespace rock::analysis {

VTableIndex::VTableIndex(std::vector<VTableInfo> vtables)
    : vtables_(std::move(vtables))
{
    for (std::size_t i = 0; i < vtables_.size(); ++i) {
        by_addr_[vtables_[i].addr] = i;
        for (std::uint32_t fn : vtables_[i].slots)
            owners_[fn].push_back(vtables_[i].addr);
    }
}

const VTableInfo*
VTableIndex::starting_at(std::uint32_t addr) const
{
    auto it = by_addr_.find(addr);
    return it == by_addr_.end() ? nullptr : &vtables_[it->second];
}

const VTableInfo*
VTableIndex::covering(std::uint32_t addr, std::uint32_t* slot) const
{
    auto it = by_addr_.upper_bound(addr);
    if (it == by_addr_.begin())
        return nullptr;
    --it;
    const VTableInfo& vt = vtables_[it->second];
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

const std::vector<std::uint32_t>&
VTableIndex::owners(std::uint32_t func) const
{
    auto it = owners_.find(func);
    return it == owners_.end() ? none_ : it->second;
}

Transfer::Transfer(const bir::BinaryImage& image,
                   const VTableIndex& vtables,
                   const SymExecConfig& config,
                   const std::set<std::uint32_t>& this_callees,
                   std::uint32_t fn_addr, bool arg0_is_object)
    : image_(image), vtables_(vtables), config_(config),
      this_callees_(this_callees), owners_(vtables.owners(fn_addr)),
      arg0_is_object_(arg0_is_object)
{
}

const VTableInfo*
Transfer::known_vtable(const AbsValue& base) const
{
    bool known = base.kind == AbsValue::Kind::Const ||
                 (base.kind == AbsValue::Kind::Vptr && base.imm != 0);
    return known ? vtables_.starting_at(base.imm) : nullptr;
}

void
Transfer::finish_path(const AbsState& st, const TraceletSink& sink) const
{
    const std::size_t len =
        static_cast<std::size_t>(config_.tracelet_len);
    for (const AbsObject& obj : st.objects) {
        if (obj.events.empty())
            continue;
        const auto& ev = obj.events;
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

        auto primary = obj.vptr_stores.find(0);
        if (primary != obj.vptr_stores.end()) {
            sink(primary->second, windows);
        } else if (obj.is_this_param) {
            if (owners_.empty()) {
                sink(std::nullopt, windows);
            } else if (config_.attribute_shared_methods_to_all) {
                for (std::uint32_t type : owners_)
                    sink(type, windows);
            } else {
                sink(owners_.front(), windows);
            }
        }
    }
}

} // namespace rock::analysis
