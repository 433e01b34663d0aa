/**
 * @file
 * Unit tests for rock::support.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "support/error.h"
#include "support/log.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/str.h"

namespace {

using namespace rock::support;

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("boom");
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Error, CheckPassesAndFails)
{
    EXPECT_NO_THROW(check(true, "fine"));
    EXPECT_THROW(check(false, "bad"), FatalError);
}

TEST(Error, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(ROCK_ASSERT(1 == 2, "math"), PanicError);
    EXPECT_NO_THROW(ROCK_ASSERT(1 == 1, "math"));
}

TEST(Log, LevelGatesMessages)
{
    LogLevel old = log_level();
    set_log_level(LogLevel::Off);
    // Just exercising the path; nothing should be printed or crash.
    log_message(LogLevel::Error, "suppressed");
    ROCK_LOG_ERROR << "also suppressed " << 42;
    set_log_level(old);
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniform(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformSingletonRange)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.uniform(0, 1 << 30) == b.uniform(0, 1 << 30))
            ++same;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, IndexCoversAllSlots)
{
    Rng rng(3);
    std::set<std::size_t> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(rng.index(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RealWithinUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LengthRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        std::size_t len = rng.length(2, 6);
        EXPECT_GE(len, 2u);
        EXPECT_LE(len, 6u);
    }
}

TEST(Rng, WeightedNeverPicksZeroWeight)
{
    Rng rng(13);
    std::vector<double> weights{0.0, 1.0, 0.0, 2.0};
    for (int i = 0; i < 300; ++i) {
        std::size_t pick = rng.weighted(weights);
        EXPECT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(Rng, WeightedRequiresPositiveTotal)
{
    Rng rng(13);
    std::vector<double> weights{0.0, 0.0};
    EXPECT_THROW(rng.weighted(weights), PanicError);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(17);
    std::vector<int> items{1, 2, 3, 4, 5, 6};
    auto copy = items;
    rng.shuffle(items);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(copy.begin(), copy.end());
    EXPECT_EQ(a, b);
}

TEST(Str, HexFormats)
{
    EXPECT_EQ(hex(0), "0x0");
    EXPECT_EQ(hex(0x1000), "0x1000");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST(Str, JoinEmptyAndNonEmpty)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b", "c"}, "; "), "a; b; c");
}

TEST(Str, FormatBasics)
{
    EXPECT_EQ(format("x=%d", 42), "x=42");
    EXPECT_EQ(format("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(format("%05x", 0xab), "000ab");
}

TEST(Parallel, ResolveThreads)
{
    EXPECT_EQ(resolve_threads(1), 1);
    EXPECT_EQ(resolve_threads(4), 4);
    EXPECT_EQ(resolve_threads(-3), 1);
    EXPECT_GE(resolve_threads(0), 1); // hardware concurrency
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        std::vector<int> hits(101, 0);
        pool.parallel_for(hits.size(), ChunkPlan{}, [&](std::size_t i) {
            hits[i] += 1; // slot write, no synchronization needed
        });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 101);
        EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                [](int h) { return h == 1; }));
    }
}

TEST(Parallel, PoolIsReusableAcrossLoops)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> sum{0};
        pool.parallel_for(50, ChunkPlan{}, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 49 * 50 / 2);
    }
}

TEST(Parallel, ExceptionPropagatesToCaller)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(pool.parallel_for(10, ChunkPlan{},
                                       [](std::size_t i) {
                                           if (i == 7)
                                               throw std::runtime_error(
                                                   "item 7");
                                       }),
                     std::runtime_error);
        // The pool must survive a throwing loop and run the next one.
        std::atomic<int> count{0};
        pool.parallel_for(10, ChunkPlan{}, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 10);
    }
}

TEST(Parallel, EmptyAndSingleItemLoops)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, ChunkPlan{}, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, ChunkPlan{}, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, ZeroItemLoopAcrossPoolSizes)
{
    // An empty index space must return immediately (no worker
    // wake-up deadlock) for the inline pool, a normal pool, and an
    // oversubscribed one -- and leave the pool usable.
    for (int threads : {1, 2, 8, 19}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        int calls = 0;
        pool.parallel_for(0, ChunkPlan{}, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls, 0);
        std::atomic<int> after{0};
        pool.parallel_for(3, ChunkPlan{}, [&](std::size_t) { ++after; });
        EXPECT_EQ(after.load(), 3);
    }
}

TEST(Parallel, OversubscribedPoolCoversEveryItem)
{
    // More workers than items: most workers find no chunk to claim,
    // every item still runs exactly once.
    ThreadPool pool(16);
    std::vector<int> hits(5, 0);
    pool.parallel_for(hits.size(), ChunkPlan{},
                      [&](std::size_t i) { hits[i] += 1; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
}

TEST(Parallel, AllWorkersThrowingStillRecovers)
{
    // Every chunk throws on its first item; exactly one exception
    // reaches the caller and the pool keeps working afterwards.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(8, ChunkPlan{},
                                   [](std::size_t i) {
                                       throw std::runtime_error(
                                           "item " +
                                           std::to_string(i));
                                   }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(8, ChunkPlan{}, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8);
}

TEST(Parallel, InlinePoolPropagatesExceptionAndSurvives)
{
    // threads=1 runs inline on the caller; the exception path must
    // behave exactly like the threaded one.
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallel_for(4, ChunkPlan{},
                                   [](std::size_t i) {
                                       if (i == 2)
                                           throw std::logic_error(
                                               "inline");
                                   }),
                 std::logic_error);
    int calls = 0;
    pool.parallel_for(4, ChunkPlan{}, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 4);
}

TEST(Parallel, HeterogeneousStageReuse)
{
    // The pipeline drives one pool through stages of very different
    // shapes (many tiny items, then few heavy ones, then none).
    ThreadPool pool(3);
    std::vector<int> small(200, 0);
    pool.parallel_for(small.size(), ChunkPlan{},
                      [&](std::size_t i) { small[i] = 1; });
    std::vector<long> heavy(2, 0);
    pool.parallel_for(heavy.size(), ChunkPlan{}, [&](std::size_t i) {
        long acc = 0;
        for (int j = 0; j < 10000; ++j)
            acc += static_cast<long>(i) + j;
        heavy[i] = acc;
    });
    pool.parallel_for(0, ChunkPlan{}, [&](std::size_t) { FAIL(); });
    EXPECT_EQ(std::accumulate(small.begin(), small.end(), 0), 200);
    EXPECT_EQ(heavy[0] + 10000 * static_cast<long>(1),
              heavy[1]);
}

// ---------------------------------------------------------------------
// Cost-aware chunk planning
// ---------------------------------------------------------------------

TEST(PlanChunks, CoversIndexSpaceContiguously)
{
    for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
        for (std::size_t workers : {1u, 2u, 4u, 16u}) {
            ChunkPlan plan;
            auto chunks = plan_chunks(count, workers, plan);
            std::size_t next = 0;
            for (const Chunk& c : chunks) {
                EXPECT_EQ(c.begin, next);
                EXPECT_LT(c.begin, c.end);
                next = c.end;
            }
            EXPECT_EQ(next, count);
        }
    }
}

TEST(PlanChunks, ChunkCountBoundedByTarget)
{
    // Chunks never exceed workers * chunks_per_worker; the inline
    // (1-worker) path then runs them in index order, which is
    // exactly the plain loop.
    ChunkPlan plan;
    EXPECT_LE(plan_chunks(100, 1, plan).size(),
              plan.chunks_per_worker);
    EXPECT_LE(plan_chunks(1000, 4, plan).size(),
              4 * plan.chunks_per_worker);
    // Fewer items than the target: one item per chunk at most.
    EXPECT_LE(plan_chunks(3, 8, plan).size(), 3u);
}

TEST(PlanChunks, GrainBoundsChunkCount)
{
    ChunkPlan plan;
    plan.grain = 10;
    auto chunks = plan_chunks(32, 8, plan);
    for (const Chunk& c : chunks)
        EXPECT_GE(c.end - c.begin, 1u);
    // 32 items at grain 10 can make at most ceil(32/10) = 4 chunks.
    EXPECT_LE(chunks.size(), 4u);
}

TEST(PlanChunks, CostsEqualizeCumulativeWork)
{
    // One huge item up front must not drag its whole static share
    // along with it: the expensive item gets a chunk of its own.
    std::vector<std::uint64_t> costs(16, 1);
    costs[0] = 1000;
    ChunkPlan plan;
    plan.costs = costs.data();
    plan.chunks_per_worker = 2;
    auto chunks = plan_chunks(costs.size(), 4, plan);
    ASSERT_GE(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].begin, 0u);
    EXPECT_EQ(chunks[0].end, 1u);
    std::size_t next = 0;
    for (const Chunk& c : chunks) {
        EXPECT_EQ(c.begin, next);
        next = c.end;
    }
    EXPECT_EQ(next, costs.size());
}

TEST(PlanChunks, DeterministicForSameInputs)
{
    std::vector<std::uint64_t> costs;
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        costs.push_back(
            static_cast<std::uint64_t>(rng.uniform(0, 49)));
    ChunkPlan plan;
    plan.costs = costs.data();
    auto a = plan_chunks(costs.size(), 8, plan);
    auto b = plan_chunks(costs.size(), 8, plan);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
    }
}

// ---------------------------------------------------------------------
// Chunked parallel_for: coverage + determinism sweep
// ---------------------------------------------------------------------

TEST(Parallel, ChunkedEveryIndexRunsExactlyOnce)
{
    std::vector<std::uint64_t> costs(301);
    Rng rng(17);
    for (auto& c : costs)
        c = static_cast<std::uint64_t>(rng.uniform(0, 19));
    ChunkPlan plan;
    plan.costs = costs.data();
    for (int threads : {1, 2, 5}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(costs.size());
        for (auto& h : hits)
            h.store(0);
        pool.parallel_for(costs.size(), plan,
                          [&](std::size_t i) { hits[i] += 1; });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, ChunkedDeterminismSweep)
{
    // The determinism contract: items write only their own slot, so
    // the merged output is bit-identical at every thread count and
    // under every chunk schedule. Simulate a cost-skewed stage and
    // sweep threads {1, 2, hw}.
    const std::size_t n = 400;
    std::vector<std::uint64_t> costs(n);
    Rng rng(23);
    for (auto& c : costs)
        c = static_cast<std::uint64_t>(rng.uniform(1, 100));
    ChunkPlan plan;
    plan.costs = costs.data();

    auto run = [&](int threads) {
        ThreadPool pool(threads);
        std::vector<double> out(n, 0.0);
        pool.parallel_for(n, plan, [&](std::size_t i) {
            // Work whose result depends on floating-point
            // accumulation order *within* the item only.
            double acc = 0.0;
            for (std::uint64_t j = 0; j < costs[i]; ++j)
                acc += 1.0 / static_cast<double>(i + j + 1);
            out[i] = acc;
        });
        return out;
    };

    std::vector<double> serial = run(1);
    const int hw = resolve_threads(0);
    for (int threads : {2, hw}) {
        std::vector<double> parallel = run(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(std::memcmp(&parallel[i], &serial[i],
                                  sizeof(double)),
                      0)
                << "slot " << i << " differs at " << threads
                << " threads";
    }
}

TEST(Parallel, ChunkedExceptionPropagates)
{
    ChunkPlan plan;
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(64, plan,
                                   [&](std::size_t i) {
                                       if (i == 40)
                                           throw std::runtime_error(
                                               "chunked boom");
                                   }),
                 std::runtime_error);
    // The pool survives for the next loop.
    int calls = 0;
    pool.parallel_for(4, plan, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 4);
}

} // namespace
