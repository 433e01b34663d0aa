/**
 * @file
 * Content-addressed, versioned artifact store (ROADMAP item 2's cache,
 * pre-built for the future `rockd` daemon).
 *
 * Every expensive pipeline product -- per-unique-body symexec results,
 * per-rep typeinf constraint batches, per-type trained SLM snapshots,
 * per-family divergence blocks and arborescence solutions -- is an
 * opaque byte blob addressed by an ArtifactKey:
 *
 *   (kind, content, fingerprint)
 *
 *  - `kind` is a short stable tag ("symexec", "slm", "famdist", ...).
 *  - `content` is an FNV-1a hash of the *inputs* the artifact is a
 *    pure function of (body bytes via cfg::CfgCache's hashes, tracelet
 *    sequences, edge structures). Same inputs => same key => reuse.
 *  - `fingerprint` folds in everything else that could change the
 *    bytes: the relevant config knobs, context digests (vtables,
 *    callee sets, the interned alphabet) and kSchemaVersion. Worker
 *    thread counts are deliberately NOT part of any fingerprint:
 *    results are bit-identical across thread counts (the determinism
 *    contract), so a warm hit from a 1-thread run must serve an
 *    8-thread run and vice versa.
 *
 * Tiers: a mutex-protected in-memory map with LRU eviction under
 * `max_bytes`, plus an optional on-disk tier (`dir`) holding one file
 * per entry. Disk entries carry a magic, the schema version, a key
 * echo, the payload length and an FNV checksum; any mismatch --
 * truncation, bit flips, stale schema -- demotes the read to a miss
 * (and never crashes). Writes go through a temp file + rename so
 * readers only ever see complete entries.
 *
 * Counters (docs/OBSERVABILITY.md): cache.hits, cache.misses,
 * cache.bytes (payload bytes inserted, monotonic), cache.evictions.
 * All under the `cache.` prefix, which the warm-consistency contract
 * (fuzz oracle `cache-consistent`) excludes: a warm run differs from
 * its cold run in cache.* counters and nothing else.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rock::cache {

/** Bump whenever any artifact encoding changes shape; every key's
 *  fingerprint folds this in, so old entries become misses. */
constexpr std::uint32_t kSchemaVersion = 1;

/** FNV-1a offset basis (the seed of every content hash here). */
constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

/** FNV-1a over @p len raw bytes, continuing from @p seed. */
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t seed = kFnvSeed);

/** Fold one 64-bit word into @p h (order-sensitive). */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

/** Fold a double's bit pattern into @p h. */
inline std::uint64_t
mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(h, bits);
}

/** Address of one artifact. */
struct ArtifactKey {
    std::string kind;
    std::uint64_t content = 0;
    std::uint64_t fingerprint = 0;

    bool operator==(const ArtifactKey&) const = default;
    bool
    operator<(const ArtifactKey& o) const
    {
        if (kind != o.kind)
            return kind < o.kind;
        if (content != o.content)
            return content < o.content;
        return fingerprint < o.fingerprint;
    }
};

/** Little-endian append-only byte stream (artifact payloads). */
class ByteWriter {
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }
    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }
    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over a ByteWriter stream. Every read past the
 * end returns 0 and latches ok() to false -- decoding a truncated or
 * corrupted payload yields garbage values but never undefined
 * behavior; decoders must check ok() (and their own invariants) and
 * treat failure as a cache miss.
 */
class ByteReader {
  public:
    ByteReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::vector<std::uint8_t>& bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (pos_ + 1 > size_) {
            ok_ = false;
            return 0;
        }
        return data_[pos_++];
    }
    std::uint32_t
    u32()
    {
        if (pos_ + 4 > size_) {
            ok_ = false;
            pos_ = size_;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }
    std::uint64_t
    u64()
    {
        if (pos_ + 8 > size_) {
            ok_ = false;
            pos_ = size_;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** All reads so far were in bounds and the stream is consistent. */
    bool ok() const { return ok_; }
    /** Everything consumed (decoders should end exactly at the end). */
    bool at_end() const { return ok_ && pos_ == size_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Construction knobs (CLI: --cache-dir / --cache-max-bytes). */
struct CacheOptions {
    /** On-disk tier directory; empty = in-memory only. Created on
     *  first put when missing. */
    std::string dir;
    /** Budget for the in-memory tier (LRU eviction) and for the disk
     *  tier (oldest files pruned on insert). Strict: an entry the
     *  budget cannot afford is not kept, not even one just written. */
    std::uint64_t max_bytes = 256ull << 20;
};

/** Totals for rockdump --cache-stats and tests. */
struct CacheStats {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/**
 * The store. Thread-safe; concurrent get/put of the same key are
 * first-wins (an insert racing an identical insert keeps the earlier
 * blob -- both encode the same pure function, so either is correct).
 */
class ArtifactCache {
  public:
    explicit ArtifactCache(CacheOptions options = {});

    /** Hit: fills @p out, returns true. Miss (absent, truncated,
     *  corrupt, stale schema): returns false. Never throws. */
    bool get(const ArtifactKey& key, std::vector<std::uint8_t>& out);

    /** Insert @p blob (first-wins). Persists to the disk tier when
     *  configured; disk I/O failures are silently ignored (the memory
     *  tier still serves the entry). */
    void put(const ArtifactKey& key, std::vector<std::uint8_t> blob);

    const CacheOptions& options() const { return options_; }

    /** Process-local totals (this cache instance only). */
    CacheStats stats() const;

    /** Keys currently resident in the memory tier, sorted; optionally
     *  restricted to @p kind. (Fault injection + tests.) */
    std::vector<ArtifactKey> keys(const std::string& kind = "") const;

    /**
     * TESTING/FAULT-INJECTION ONLY: replace an existing entry's
     * payload in both tiers with @p blob, keeping the key and writing
     * a *valid* header/checksum around it -- the forged entry loads as
     * a hit. This is how `rockfuzz --inject-bug stale-cache-entry`
     * simulates an invalidation bug; production code never calls it.
     */
    void corrupt_for_testing(const ArtifactKey& key,
                             std::vector<std::uint8_t> blob);

  private:
    struct Entry {
        std::vector<std::uint8_t> blob;
        std::list<ArtifactKey>::iterator lru;
    };

    std::string path_for(const ArtifactKey& key) const;
    bool read_disk(const ArtifactKey& key,
                   std::vector<std::uint8_t>& out);
    void write_disk(const ArtifactKey& key,
                    const std::vector<std::uint8_t>& blob);
    /** Insert into the memory map + LRU under @p lock held. */
    void insert_locked(const ArtifactKey& key,
                       std::vector<std::uint8_t> blob);
    void evict_locked();

    CacheOptions options_;
    mutable std::mutex mutex_;
    std::map<ArtifactKey, Entry> entries_;
    /** Most-recently-used first. */
    std::list<ArtifactKey> lru_;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    /** Running estimate of the disk tier's size; seeded by the first
     *  full scan, then maintained incrementally (see write_disk()). */
    std::uint64_t disk_bytes_ = 0;
    bool disk_seeded_ = false;
};

/**
 * Process-default cache: what reconstruct() uses when
 * RockConfig::cache is unset. Null by default (caching opt-in), set
 * by the CLIs' --cache-dir flag so tools that construct RockConfigs
 * deep inside (rockbench's experiments) pick the cache up without
 * plumbing.
 */
std::shared_ptr<ArtifactCache> default_cache();
void set_default_cache(std::shared_ptr<ArtifactCache> cache);

/** Resolve @p configured (may be null) against the process default. */
std::shared_ptr<ArtifactCache>
resolve_cache(const std::shared_ptr<ArtifactCache>& configured);

/** One kind's totals in an on-disk cache directory. */
struct DirKindStats {
    std::string kind;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
};

/** Scan of a cache directory for rockdump --cache-stats. */
struct DirStats {
    std::vector<DirKindStats> kinds; ///< sorted by kind
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    /** Entries whose header failed validation (wrong magic/schema/
     *  checksum/truncated). */
    std::uint64_t invalid = 0;
    /** Distinct schema versions seen in valid headers. */
    std::vector<std::uint32_t> schema_versions;
};

/** Scan @p dir (never throws; missing dir = empty stats). */
DirStats scan_dir(const std::string& dir);

} // namespace rock::cache
