/**
 * @file
 * Tests for the content-addressed artifact store (cache/) and its
 * integration with reconstruct(): disk-tier robustness (truncation,
 * bit flips, stale schema versions are misses, never crashes),
 * LRU eviction under a byte budget, first-wins insertion under
 * concurrency, fingerprint discipline (config knobs invalidate,
 * thread counts never do), and end-to-end warm bit-identity at
 * several worker counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/artifact_cache.h"
#include "corpus/generator.h"
#include "rock/artifacts.h"
#include "rock/pipeline.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

/** Fresh scratch directory under the system temp dir. */
class TempDir {
  public:
    explicit TempDir(const std::string& tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("rock_cache_test_" + tag +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

cache::ArtifactKey
key_of(const std::string& kind, std::uint64_t content,
       std::uint64_t fp)
{
    cache::ArtifactKey key;
    key.kind = kind;
    key.content = content;
    key.fingerprint = fp;
    return key;
}

std::vector<std::uint8_t>
blob_of(std::initializer_list<int> values)
{
    cache::ByteWriter w;
    for (int v : values)
        w.i32(v);
    return w.take();
}

/** The single .rkac file for @p kind in @p dir (asserts uniqueness). */
std::filesystem::path
single_entry_file(const std::string& dir, const std::string& kind)
{
    std::filesystem::path found;
    int matches = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(kind + "-", 0) == 0) {
            found = entry.path();
            ++matches;
        }
    }
    EXPECT_EQ(matches, 1) << "expected exactly one '" << kind
                          << "' entry in " << dir;
    return found;
}

TEST(ArtifactCache, MemoryRoundTripAndStats)
{
    cache::ArtifactCache store{cache::CacheOptions{}};
    auto key = key_of("symexec", 1, 2);
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(store.get(key, out));
    store.put(key, blob_of({7, 8, 9}));
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(out, blob_of({7, 8, 9}));
    cache::CacheStats stats = store.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ArtifactCache, FirstPutWins)
{
    cache::ArtifactCache store{cache::CacheOptions{}};
    auto key = key_of("slm", 3, 4);
    store.put(key, blob_of({1}));
    store.put(key, blob_of({2}));
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(out, blob_of({1}));
}

TEST(ArtifactCache, DiskTierSurvivesProcessRestart)
{
    TempDir dir("disk");
    cache::CacheOptions opts;
    opts.dir = dir.path();
    {
        cache::ArtifactCache store{opts};
        store.put(key_of("famdist", 5, 6), blob_of({10, 20}));
    }
    // A fresh instance simulates a new process on the same dir.
    cache::ArtifactCache store{opts};
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(store.get(key_of("famdist", 5, 6), out));
    EXPECT_EQ(out, blob_of({10, 20}));
}

TEST(ArtifactCache, TruncatedDiskEntryIsAMiss)
{
    TempDir dir("trunc");
    cache::CacheOptions opts;
    opts.dir = dir.path();
    {
        cache::ArtifactCache store{opts};
        store.put(key_of("famsolve", 7, 8), blob_of({1, 2, 3, 4}));
    }
    std::filesystem::path file =
        single_entry_file(dir.path(), "famsolve");
    std::filesystem::resize_file(
        file, std::filesystem::file_size(file) / 2);

    cache::ArtifactCache store{opts};
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(store.get(key_of("famsolve", 7, 8), out));
}

TEST(ArtifactCache, BitFlippedDiskEntryIsAMiss)
{
    TempDir dir("flip");
    cache::CacheOptions opts;
    opts.dir = dir.path();
    {
        cache::ArtifactCache store{opts};
        store.put(key_of("typeinf", 9, 10), blob_of({5, 6, 7, 8}));
    }
    std::filesystem::path file =
        single_entry_file(dir.path(), "typeinf");
    // Flip one payload byte near the end (past header + key echo);
    // the checksum must catch it.
    std::fstream f(file, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(-5, std::ios::end);
    char byte = 0;
    f.seekg(f.tellp());
    f.get(byte);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.put(byte);
    f.close();

    cache::ArtifactCache store{opts};
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(store.get(key_of("typeinf", 9, 10), out));
}

TEST(ArtifactCache, StaleSchemaVersionIsAMiss)
{
    TempDir dir("schema");
    cache::CacheOptions opts;
    opts.dir = dir.path();
    {
        cache::ArtifactCache store{opts};
        store.put(key_of("slm", 11, 12), blob_of({1, 2}));
    }
    // The on-disk header is: u32 magic, u32 schema version, ... .
    // Bump the version field, simulating an entry left behind by a
    // future (or past) build.
    std::filesystem::path file = single_entry_file(dir.path(), "slm");
    std::fstream f(file, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(4, std::ios::beg);
    f.put(static_cast<char>(cache::kSchemaVersion + 1));
    f.close();

    cache::ArtifactCache store{opts};
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(store.get(key_of("slm", 11, 12), out));

    // scan_dir keeps the entry (framing is intact) but surfaces the
    // foreign schema version for rockdump --cache-stats to report.
    cache::DirStats stats = cache::scan_dir(dir.path());
    EXPECT_EQ(stats.invalid, 0u);
    ASSERT_EQ(stats.schema_versions.size(), 1u);
    EXPECT_EQ(stats.schema_versions.front(),
              cache::kSchemaVersion + 1);
}

TEST(ArtifactCache, LruEvictionUnderByteBudget)
{
    cache::CacheOptions opts;
    opts.max_bytes = 64; // room for a handful of tiny blobs only
    cache::ArtifactCache store{opts};
    for (int i = 0; i < 32; ++i)
        store.put(key_of("symexec", static_cast<std::uint64_t>(i), 0),
                  blob_of({i, i, i, i}));
    cache::CacheStats stats = store.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries * 16, opts.max_bytes);
    // The most recent insert must still be resident, the first gone.
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(store.get(key_of("symexec", 31, 0), out));
    EXPECT_FALSE(store.get(key_of("symexec", 0, 0), out));
}

TEST(ArtifactCache, EntryOverTheBudgetIsNotKept)
{
    // Eight bytes afford a one-int blob but not a four-int one, not
    // even as the only entry and the one just written.
    const auto small = blob_of({1});
    const auto big = blob_of({1, 2, 3, 4});
    std::vector<std::uint8_t> out;
    { // Memory tier.
        cache::CacheOptions opts;
        opts.max_bytes = 8;
        cache::ArtifactCache store{opts};
        store.put(key_of("manifest", 1, 0), big);
        EXPECT_FALSE(store.get(key_of("manifest", 1, 0), out));
        cache::CacheStats stats = store.stats();
        EXPECT_EQ(stats.entries, 0u);
        EXPECT_EQ(stats.bytes, 0u);
        EXPECT_EQ(stats.evictions, 1u);
        store.put(key_of("manifest", 2, 0), small);
        EXPECT_TRUE(store.get(key_of("manifest", 2, 0), out));
    }
    { // Disk tier: the payload fits, but no entry file (header and
      // checksum included) does.
        TempDir dir("budget");
        cache::CacheOptions opts;
        opts.dir = dir.path();
        opts.max_bytes = 8;
        cache::ArtifactCache{opts}.put(key_of("manifest", 1, 0), small);
        EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
        cache::ArtifactCache fresh{opts};
        EXPECT_FALSE(fresh.get(key_of("manifest", 1, 0), out));
    }
}

TEST(ArtifactCache, ConcurrentSameKeyInsertionIsFirstWinsStable)
{
    cache::ArtifactCache store{cache::CacheOptions{}};
    auto key = key_of("famdist", 42, 42);
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
        workers.emplace_back([&store, &key, t] {
            for (int i = 0; i < 200; ++i)
                store.put(key, blob_of({t}));
        });
    }
    for (auto& w : workers)
        w.join();
    std::vector<std::uint8_t> first;
    ASSERT_TRUE(store.get(key, first));
    // Whichever writer won, the entry never changes afterwards.
    for (int i = 0; i < 10; ++i) {
        std::vector<std::uint8_t> again;
        ASSERT_TRUE(store.get(key, again));
        EXPECT_EQ(again, first);
    }
    EXPECT_EQ(store.stats().entries, 1u);
}

TEST(ArtifactFingerprints, ConfigKnobsInvalidateThreadsDoNot)
{
    core::RockConfig base;
    core::RockConfig threads = base;
    threads.threads = 8;
    EXPECT_EQ(core::config_fingerprint(base),
              core::config_fingerprint(threads));
    EXPECT_EQ(core::solve_fingerprint(base),
              core::solve_fingerprint(threads));

    core::RockConfig depth = base;
    depth.slm.depth += 1;
    EXPECT_NE(core::config_fingerprint(base),
              core::config_fingerprint(depth));

    core::RockConfig eps = base;
    eps.tie_epsilon *= 2.0;
    EXPECT_NE(core::solve_fingerprint(base),
              core::solve_fingerprint(eps));
}

// ---- end-to-end warm reconstruction ------------------------------------

toyc::CompileResult
compile_corpus(int classes, unsigned seed)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = 3;
    spec.max_depth = 4;
    spec.scenarios_per_class = 2;
    spec.seed = seed;
    return toyc::compile(corpus::generate_program(spec));
}

TEST(CacheIntegration, WarmRunsAreBitIdenticalAcrossThreadCounts)
{
    toyc::CompileResult compiled = compile_corpus(24, 7);
    const int hw = static_cast<int>(std::max(
        1u, std::thread::hardware_concurrency()));

    core::RockConfig serial;
    serial.threads = 1;
    core::ReconstructionResult uncached =
        core::reconstruct(compiled.image, serial);

    auto store = std::make_shared<cache::ArtifactCache>(
        cache::CacheOptions{});
    // Cold populate at 1 thread, then warm replays at {1, 2, hw}:
    // the fingerprints exclude thread counts, so every warm run must
    // serve from the same entries and reproduce the serial result.
    core::RockConfig cold = serial;
    cold.cache = store;
    EXPECT_EQ(core::first_difference(
                  uncached, core::reconstruct(compiled.image, cold)),
              "");

    std::uint64_t after_cold_hits = store->stats().hits;
    for (int threads : {1, 2, hw}) {
        core::RockConfig warm;
        warm.threads = threads;
        warm.cache = store;
        EXPECT_EQ(core::first_difference(
                      uncached, core::reconstruct(compiled.image, warm)),
                  "")
            << "threads=" << threads;
        std::uint64_t hits = store->stats().hits;
        EXPECT_GT(hits, after_cold_hits) << "threads=" << threads;
        after_cold_hits = hits;
    }
}

TEST(CacheIntegration, DiskWarmStartInFreshStore)
{
    TempDir dir("warm");
    toyc::CompileResult compiled = compile_corpus(16, 11);

    core::ReconstructionResult cold;
    {
        cache::CacheOptions opts;
        opts.dir = dir.path();
        core::RockConfig config;
        config.threads = 1;
        config.cache = std::make_shared<cache::ArtifactCache>(opts);
        cold = core::reconstruct(compiled.image, config);
    }
    // New store instance on the same dir: everything replays from
    // disk, bit-identically.
    cache::CacheOptions opts;
    opts.dir = dir.path();
    auto store = std::make_shared<cache::ArtifactCache>(opts);
    core::RockConfig config;
    config.threads = 1;
    config.cache = store;
    EXPECT_EQ(core::first_difference(
                  cold, core::reconstruct(compiled.image, config)),
              "");
    EXPECT_GT(store->stats().hits, 0u);
}

TEST(CacheIntegration, CorruptedEntriesNeverChangeResults)
{
    toyc::CompileResult compiled = compile_corpus(16, 13);
    auto store = std::make_shared<cache::ArtifactCache>(
        cache::CacheOptions{});
    core::RockConfig config;
    config.threads = 1;
    config.cache = store;
    const core::ReconstructionResult want =
        core::reconstruct(compiled.image, config);

    // Truncate every famsolve payload in place (valid header,
    // garbage body): decoders must reject them and re-solve.
    for (const auto& key : store->keys(core::kFamilySolveKind))
        store->corrupt_for_testing(key, blob_of({0}));
    EXPECT_EQ(core::first_difference(
                  want, core::reconstruct(compiled.image, config)),
              "");
}

} // namespace
