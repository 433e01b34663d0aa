#include "cfg/cfg_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/error.h"

namespace rock::cfg {

std::uint64_t
hash_function_bytes(const bir::BinaryImage& image,
                    const bir::FunctionEntry& fn)
{
    // FNV-1a, 64-bit. Clip to the code section: truncated entries may
    // claim bytes past it, and build_cfg materializes only what is
    // readable.
    std::uint64_t h = 1469598103934665603ull;
    if (!image.in_code(fn.addr))
        return h;
    std::size_t off = fn.addr - image.code_base;
    std::size_t end = off + fn.size;
    if (end > image.code.size())
        end = image.code.size();
    for (std::size_t i = off; i < end; ++i) {
        h ^= image.code[i];
        h *= 1099511628211ull;
    }
    return h;
}

CfgCache::CfgCache(const bir::BinaryImage& image) : image_(image)
{
    const std::size_t n = image.functions.size();
    cfgs_.resize(n);
    hashes_.assign(n, 0);
    costs_.assign(n, 0);
    by_addr_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        by_addr_.emplace(image.functions[i].addr, i);
}

void
CfgCache::build_all(support::ThreadPool& pool)
{
    if (built_)
        return;
    const std::size_t n = cfgs_.size();

    // Chunk by claimed body size: slot counts are proportional to it
    // and it is known before any CFG exists.
    std::vector<std::uint64_t> byte_costs(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        byte_costs[i] =
            std::max<std::uint64_t>(1, image_.functions[i].size);

    support::ChunkPlan plan;
    plan.costs = byte_costs.data();
    pool.parallel_for(n, plan, [&](std::size_t i) {
        cfgs_[i] = build_cfg(image_, image_.functions[i]);
        hashes_[i] = hash_function_bytes(image_, image_.functions[i]);
        costs_[i] = cfgs_[i].slots.size();
    });
    built_ = true;

    // Pure functions of the image: deterministic counters.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> bodies(n);
    for (std::size_t i = 0; i < n; ++i)
        bodies[i] = {image_.functions[i].size, hashes_[i]};
    std::sort(bodies.begin(), bodies.end());
    std::size_t unique = static_cast<std::size_t>(
        std::unique(bodies.begin(), bodies.end()) - bodies.begin());
    obs::Registry& reg = obs::Registry::global();
    reg.counter("cfg.cache.functions").add(n);
    reg.counter("cfg.cache.unique_bodies").add(unique);
}

const Cfg&
CfgCache::at(std::size_t index) const
{
    ROCK_ASSERT(built_, "CfgCache::at before build_all");
    return cfgs_[index];
}

const Cfg*
CfgCache::find(std::uint32_t func_addr) const
{
    if (!built_)
        return nullptr;
    auto it = by_addr_.find(func_addr);
    if (it == by_addr_.end())
        return nullptr;
    return &cfgs_[it->second];
}

std::uint64_t
CfgCache::content_hash(std::size_t index) const
{
    ROCK_ASSERT(built_, "CfgCache::content_hash before build_all");
    return hashes_[index];
}

std::vector<bir::Instr>
CfgCache::body(std::size_t index) const
{
    ROCK_ASSERT(built_, "CfgCache::body before build_all");
    const Cfg& cfg = cfgs_[index];
    if (cfg.well_formed()) {
        std::vector<bir::Instr> out;
        out.reserve(cfg.slots.size());
        for (const Slot& slot : cfg.slots)
            out.push_back(*slot.instr);
        return out;
    }
    // Corrupt body: defer to the decoder so its fatal diagnostics
    // stay the single source of truth.
    return image_.decode_function(image_.functions[index]);
}

std::uint64_t
image_digest(const bir::BinaryImage& image)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix_bytes = [&h](const std::uint8_t* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    auto mix_u32 = [&](std::uint32_t v) {
        std::uint8_t b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
        mix_bytes(b, sizeof(b));
    };
    mix_u32(image.code_base);
    mix_u32(image.data_base);
    mix_u32(image.entry);
    mix_u32(static_cast<std::uint32_t>(image.functions.size()));
    for (const auto& fn : image.functions) {
        mix_u32(fn.addr);
        mix_u32(fn.size);
    }
    mix_bytes(image.code.data(), image.code.size());
    mix_bytes(image.data.data(), image.data.size());
    return h;
}

} // namespace rock::cfg
