#include "eval/ground_truth.h"

#include <algorithm>

#include "support/error.h"

namespace rock::eval {

core::Hierarchy
GroundTruth::forest() const
{
    std::vector<std::uint32_t> nodes = types;
    for (const auto& [child, par] : parent) {
        nodes.push_back(child);
        nodes.push_back(par);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    core::Hierarchy h(std::move(nodes));
    for (const auto& [child, par] : parent)
        h.set_parent(h.index_of(child), h.index_of(par));
    return h;
}

std::set<std::uint32_t>
GroundTruth::successors_in(const core::Hierarchy& hierarchy,
                           std::uint32_t type) const
{
    std::set<std::uint32_t> out;
    const int node = hierarchy.index_of(type);
    if (node < 0)
        return out;
    for (int succ : hierarchy.successors(node)) {
        const std::uint32_t addr = hierarchy.type_at(succ);
        if (std::binary_search(types.begin(), types.end(), addr))
            out.insert(addr);
    }
    return out;
}

std::set<std::uint32_t>
GroundTruth::successors(std::uint32_t type) const
{
    return successors_in(forest(), type);
}

GroundTruth
ground_truth_from_debug(const toyc::DebugInfo& debug)
{
    GroundTruth gt;
    for (const auto& type : debug.types) {
        gt.names[type.vtable_addr] = type.class_name;
        if (type.synthetic) {
            gt.synthetic.insert(type.vtable_addr);
            continue;
        }
        gt.types.push_back(type.vtable_addr);
        if (!type.ancestors.empty())
            gt.parent[type.vtable_addr] = type.ancestors.front();
    }
    std::sort(gt.types.begin(), gt.types.end());
    return gt;
}

GroundTruth
ground_truth_from_rtti(const bir::BinaryImage& image)
{
    support::check(image.has_rtti,
                   "image carries no RTTI records");
    GroundTruth gt;
    // RTTI record layout (see bir::ImageBuilder::link):
    //   [magic][self vtable][name_len][name, padded][n][ancestors...]
    std::uint32_t addr = image.data_base;
    std::uint32_t end =
        image.data_base + static_cast<std::uint32_t>(image.data.size());
    while (addr + bir::kWordSize <= end) {
        auto magic = image.read_data_word(addr);
        if (!magic || *magic != bir::kRttiMagic) {
            addr += bir::kWordSize;
            continue;
        }
        auto self = image.read_data_word(addr + 4);
        auto name_len = image.read_data_word(addr + 8);
        if (!self || !name_len) {
            addr += bir::kWordSize;
            continue;
        }
        std::string name;
        for (std::uint32_t i = 0; i < *name_len; ++i) {
            std::uint32_t off = addr + 12 + i - image.data_base;
            if (off >= image.data.size())
                break;
            name.push_back(static_cast<char>(image.data[off]));
        }
        std::uint32_t padded = (*name_len + 3u) & ~3u;
        std::uint32_t chain_at = addr + 12 + padded;
        auto num_anc = image.read_data_word(chain_at);
        if (!num_anc) {
            addr += bir::kWordSize;
            continue;
        }
        std::vector<std::uint32_t> chain;
        for (std::uint32_t i = 0; i < *num_anc; ++i) {
            auto anc =
                image.read_data_word(chain_at + 4 * (i + 1));
            if (anc)
                chain.push_back(*anc);
        }

        gt.names[*self] = name;
        // Secondary vtables are emitted with Class::Base names.
        if (name.find("::") != std::string::npos) {
            gt.synthetic.insert(*self);
        } else {
            gt.types.push_back(*self);
            // chain is self-first; the next entry is the parent.
            if (chain.size() >= 2)
                gt.parent[*self] = chain[1];
        }
        addr = chain_at + 4 * (*num_anc + 1);
    }
    std::sort(gt.types.begin(), gt.types.end());
    gt.types.erase(std::unique(gt.types.begin(), gt.types.end()),
                   gt.types.end());
    return gt;
}

} // namespace rock::eval
