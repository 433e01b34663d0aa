#include "cache/artifact_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "support/str.h"

namespace rock::cache {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x43414b52; // "RKAC"
constexpr const char* kSuffix = ".rockc";

struct CacheMetrics {
    obs::Counter& hits = obs::Registry::global().counter("cache.hits");
    obs::Counter& misses =
        obs::Registry::global().counter("cache.misses");
    obs::Counter& bytes =
        obs::Registry::global().counter("cache.bytes");
    obs::Counter& evictions =
        obs::Registry::global().counter("cache.evictions");
};

CacheMetrics&
cache_metrics()
{
    static CacheMetrics m;
    return m;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Serialize the full on-disk entry (header + payload). */
std::vector<std::uint8_t>
encode_entry(const ArtifactKey& key,
             const std::vector<std::uint8_t>& blob)
{
    ByteWriter w;
    w.u32(kMagic);
    w.u32(kSchemaVersion);
    w.u32(static_cast<std::uint32_t>(key.kind.size()));
    for (char c : key.kind)
        w.u8(static_cast<std::uint8_t>(c));
    w.u64(key.content);
    w.u64(key.fingerprint);
    w.u64(blob.size());
    w.u64(fnv1a(blob.data(), blob.size()));
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), blob.begin(), blob.end());
    return out;
}

/**
 * Validate an on-disk entry against @p key. Returns true and fills
 * @p payload only when every header field, the length and the
 * checksum agree; anything else -- truncation, bit flips, a stale
 * schema version, a renamed file -- is a miss.
 */
bool
decode_entry(const std::vector<std::uint8_t>& raw,
             const ArtifactKey& key, std::vector<std::uint8_t>& payload)
{
    ByteReader r(raw);
    if (r.u32() != kMagic || r.u32() != kSchemaVersion)
        return false;
    std::uint32_t kind_len = r.u32();
    if (!r.ok() || kind_len != key.kind.size() ||
        kind_len > r.remaining())
        return false;
    std::string kind;
    kind.reserve(kind_len);
    for (std::uint32_t i = 0; i < kind_len; ++i)
        kind.push_back(static_cast<char>(r.u8()));
    if (kind != key.kind)
        return false;
    if (r.u64() != key.content || r.u64() != key.fingerprint)
        return false;
    std::uint64_t len = r.u64();
    std::uint64_t sum = r.u64();
    if (!r.ok() || len != r.remaining())
        return false;
    payload.assign(raw.end() - static_cast<std::ptrdiff_t>(len),
                   raw.end());
    if (fnv1a(payload.data(), payload.size()) != sum) {
        payload.clear();
        return false;
    }
    return true;
}

bool
slurp_file(const std::string& path, std::vector<std::uint8_t>& out)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace

std::uint64_t
fnv1a(const void* data, std::size_t len, std::uint64_t seed)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

ArtifactCache::ArtifactCache(CacheOptions options)
    : options_(std::move(options))
{
}

std::string
ArtifactCache::path_for(const ArtifactKey& key) const
{
    return options_.dir + "/" + key.kind + "-" + hex16(key.content) +
           "-" + hex16(key.fingerprint) + kSuffix;
}

bool
ArtifactCache::get(const ArtifactKey& key,
                   std::vector<std::uint8_t>& out)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            out = it->second.blob;
            ++hits_;
            cache_metrics().hits.add();
            return true;
        }
    }
    if (!options_.dir.empty() && read_disk(key, out)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (entries_.find(key) == entries_.end())
            insert_locked(key, out);
        ++hits_;
        cache_metrics().hits.add();
        return true;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++misses_;
    }
    cache_metrics().misses.add();
    return false;
}

void
ArtifactCache::put(const ArtifactKey& key,
                   std::vector<std::uint8_t> blob)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (entries_.find(key) != entries_.end())
            return; // first-wins
        cache_metrics().bytes.add(blob.size());
        insert_locked(key, blob);
    }
    if (!options_.dir.empty())
        write_disk(key, blob);
}

void
ArtifactCache::insert_locked(const ArtifactKey& key,
                             std::vector<std::uint8_t> blob)
{
    resident_bytes_ += blob.size();
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(blob), lru_.begin()});
    evict_locked();
}

void
ArtifactCache::evict_locked()
{
    while (resident_bytes_ > options_.max_bytes) {
        const ArtifactKey& victim = lru_.back();
        auto it = entries_.find(victim);
        resident_bytes_ -= it->second.blob.size();
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
        cache_metrics().evictions.add();
    }
}

bool
ArtifactCache::read_disk(const ArtifactKey& key,
                         std::vector<std::uint8_t>& out)
{
    std::vector<std::uint8_t> raw;
    if (!slurp_file(path_for(key), raw))
        return false;
    return decode_entry(raw, key, out);
}

void
ArtifactCache::write_disk(const ArtifactKey& key,
                          const std::vector<std::uint8_t>& blob)
{
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    std::vector<std::uint8_t> raw = encode_entry(key, blob);
    // Temp file + rename: readers only ever observe complete entries
    // (a torn write leaves a temp file the validator never opens).
    std::string final_path = path_for(key);
    std::string tmp_path =
        final_path + ".tmp." +
        std::to_string(
            fnv1a(final_path.data(), final_path.size()) & 0xffff);
    std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
    if (!f)
        return;
    std::size_t written =
        std::fwrite(raw.data(), 1, raw.size(), f);
    bool ok = std::fclose(f) == 0 && written == raw.size();
    if (!ok) {
        std::remove(tmp_path.c_str());
        return;
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        std::remove(tmp_path.c_str());
        return;
    }

    // Disk-tier budget, kept as a running estimate so the common case
    // is O(1) per write: one directory scan seeds the estimate, each
    // write adds its own size, and the full scan-and-prune below runs
    // only when the estimate crosses the budget (a sweep can write
    // tens of thousands of small artifacts; a scan per write would be
    // quadratic in entry count).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (disk_seeded_) {
            disk_bytes_ += raw.size();
            if (disk_bytes_ <= options_.max_bytes)
                return;
        }
    }

    // Prune oldest entries (by mtime, then name for determinism)
    // until the directory fits. Best-effort.
    std::uintmax_t total = 0;
    std::vector<std::pair<fs::file_time_type, fs::path>> files;
    for (const auto& de : fs::directory_iterator(options_.dir, ec)) {
        if (ec)
            return;
        if (!de.is_regular_file(ec) ||
            de.path().extension() != kSuffix)
            continue;
        std::uintmax_t sz = de.file_size(ec);
        if (ec)
            continue;
        total += sz;
        files.emplace_back(de.last_write_time(ec), de.path());
    }
    if (total <= options_.max_bytes) {
        std::lock_guard<std::mutex> lock(mutex_);
        disk_seeded_ = true;
        disk_bytes_ = total;
        return;
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second < b.second;
              });
    for (const auto& [mtime, path] : files) {
        if (total <= options_.max_bytes)
            break;
        std::uintmax_t sz = fs::file_size(path, ec);
        if (!ec && fs::remove(path, ec) && !ec) {
            total -= sz;
            std::lock_guard<std::mutex> lock(mutex_);
            ++evictions_;
            cache_metrics().evictions.add();
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    disk_seeded_ = true;
    disk_bytes_ = total;
}

CacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats s;
    s.entries = entries_.size();
    s.bytes = resident_bytes_;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    return s;
}

std::vector<ArtifactKey>
ArtifactCache::keys(const std::string& kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ArtifactKey> out;
    for (const auto& [key, entry] : entries_) {
        if (kind.empty() || key.kind == kind)
            out.push_back(key);
    }
    return out;
}

void
ArtifactCache::corrupt_for_testing(const ArtifactKey& key,
                                   std::vector<std::uint8_t> blob)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            resident_bytes_ -= it->second.blob.size();
            resident_bytes_ += blob.size();
            it->second.blob = blob;
        }
    }
    if (!options_.dir.empty()) {
        std::vector<std::uint8_t> raw = encode_entry(key, blob);
        std::FILE* f = std::fopen(path_for(key).c_str(), "wb");
        if (f) {
            (void)std::fwrite(raw.data(), 1, raw.size(), f);
            std::fclose(f);
        }
    }
}

namespace {
std::shared_ptr<ArtifactCache>&
default_cache_slot()
{
    static std::shared_ptr<ArtifactCache> cache;
    return cache;
}
std::mutex&
default_cache_mutex()
{
    static std::mutex m;
    return m;
}
} // namespace

std::shared_ptr<ArtifactCache>
default_cache()
{
    std::lock_guard<std::mutex> lock(default_cache_mutex());
    return default_cache_slot();
}

void
set_default_cache(std::shared_ptr<ArtifactCache> cache)
{
    std::lock_guard<std::mutex> lock(default_cache_mutex());
    default_cache_slot() = std::move(cache);
}

std::shared_ptr<ArtifactCache>
resolve_cache(const std::shared_ptr<ArtifactCache>& configured)
{
    return configured ? configured : default_cache();
}

DirStats
scan_dir(const std::string& dir)
{
    DirStats stats;
    std::error_code ec;
    std::map<std::string, DirKindStats> by_kind;
    std::vector<std::uint32_t> schemas;
    for (const auto& de : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!de.is_regular_file(ec) ||
            de.path().extension() != kSuffix)
            continue;
        std::vector<std::uint8_t> raw;
        if (!slurp_file(de.path().string(), raw)) {
            ++stats.invalid;
            continue;
        }
        ByteReader r(raw);
        bool valid = r.u32() == kMagic;
        std::uint32_t schema = r.u32();
        std::uint32_t kind_len = r.u32();
        std::string kind;
        if (valid && r.ok() && kind_len <= r.remaining()) {
            for (std::uint32_t i = 0; i < kind_len; ++i)
                kind.push_back(static_cast<char>(r.u8()));
        } else {
            valid = false;
        }
        (void)r.u64(); // content
        (void)r.u64(); // fingerprint
        std::uint64_t len = r.u64();
        std::uint64_t sum = r.u64();
        valid = valid && r.ok() && len == r.remaining() &&
                fnv1a(raw.data() + (raw.size() - len), len) == sum;
        if (!valid) {
            ++stats.invalid;
            continue;
        }
        schemas.push_back(schema);
        DirKindStats& k = by_kind[kind];
        k.kind = kind;
        ++k.entries;
        k.bytes += raw.size();
        ++stats.entries;
        stats.bytes += raw.size();
    }
    for (auto& [kind, k] : by_kind)
        stats.kinds.push_back(k);
    std::sort(schemas.begin(), schemas.end());
    schemas.erase(std::unique(schemas.begin(), schemas.end()),
                  schemas.end());
    stats.schema_versions = schemas;
    return stats;
}

} // namespace rock::cache
