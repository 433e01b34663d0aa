/**
 * @file
 * Unit tests for rock::support.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
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
    std::atomic<int> calls{0};
    pool.parallel_for(4, plan, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 4);
}

// ---------------------------------------------------------------------
// run_tasks: the pool's one executor
// ---------------------------------------------------------------------

TEST(RunTasks, DependenciesAreRespected)
{
    // A random DAG whose edges point both up and down the index space:
    // every task must start after all of its deps have finished.
    const std::size_t n = 120;
    Rng rng(31);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(
                      rng.uniform(0, static_cast<int>(i) - 1))]);
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::vector<std::atomic<bool>> done(n);
        std::vector<std::atomic<int>> runs(n);
        std::atomic<int> violations{0};
        std::vector<Task> tasks(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t t = order[k];
            for (int e = 0; e < 3 && k > 0; ++e)
                tasks[t].deps.push_back(order[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<int>(k) - 1))]);
            tasks[t].fn = [&, t] {
                for (std::size_t d : tasks[t].deps) {
                    if (!done[d].load())
                        ++violations;
                }
                ++runs[t];
                done[t].store(true);
            };
        }
        pool.run_tasks(tasks);
        EXPECT_EQ(violations.load(), 0);
        for (const auto& r : runs)
            EXPECT_EQ(r.load(), 1);
    }
}

TEST(RunTasks, InlinePoolRunsReadyTasksInAscendingOrder)
{
    // Ready set {1, 3, 5} at the start; 1 releases 2, 3 releases 0,
    // 0 releases 4. Lowest ready index first gives 1 2 3 0 4 5, all on
    // the calling thread.
    ThreadPool pool(1);
    std::vector<std::size_t> ran;
    std::set<std::thread::id> threads;
    std::vector<Task> tasks(6);
    const std::vector<std::vector<std::size_t>> deps = {
        {3}, {}, {1}, {}, {0}, {}};
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        tasks[t].deps = deps[t];
        tasks[t].fn = [&, t] {
            ran.push_back(t);
            threads.insert(std::this_thread::get_id());
        };
    }
    pool.run_tasks(tasks);
    EXPECT_EQ(ran, (std::vector<std::size_t>{1, 2, 3, 0, 4, 5}));
    EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(RunTasks, FirstExceptionCancelsUnstartedTasksAndIsRethrown)
{
    {
        // Inline: task 0 throws first, so the independent task 1 that
        // would throw a second error never starts.
        ThreadPool pool(1);
        int later = 0;
        std::vector<Task> tasks(4);
        tasks[0].fn = [] { throw std::runtime_error("first"); };
        tasks[1].fn = [] { throw std::runtime_error("second"); };
        tasks[2].fn = [&] { ++later; };
        tasks[3].fn = [&] { ++later; };
        try {
            pool.run_tasks(tasks);
            ADD_FAILURE() << "run_tasks did not throw";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "first");
        }
        EXPECT_EQ(later, 0);
    }
    for (int threads : {2, 4}) {
        // Every other task depends on the throwing one, so none of
        // them may start at any pool size; the pool stays usable.
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        std::vector<Task> tasks(16);
        tasks[0].fn = [] { throw std::logic_error("root"); };
        for (std::size_t t = 1; t < tasks.size(); ++t) {
            tasks[t].deps = {0};
            tasks[t].fn = [&] { ++ran; };
        }
        EXPECT_THROW(pool.run_tasks(tasks), std::logic_error);
        EXPECT_EQ(ran.load(), 0);
        std::atomic<int> after{0};
        pool.parallel_for(10, ChunkPlan{}, [&](std::size_t) { ++after; });
        EXPECT_EQ(after.load(), 10);
    }
}

TEST(RunTasks, UnsatisfiableDependenciesThrowWithoutHanging)
{
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        // 0 and 1 wait on each other, 2 on itself; 3 is free to run.
        std::vector<Task> cycle(4);
        cycle[0].deps = {1};
        cycle[1].deps = {0};
        cycle[2].deps = {2};
        for (Task& task : cycle)
            task.fn = [&] { ++ran; };
        EXPECT_THROW(pool.run_tasks(cycle), std::runtime_error);
        EXPECT_EQ(ran.load(), 1);

        std::vector<Task> out_of_range(3);
        out_of_range[1].deps = {3};
        for (Task& task : out_of_range)
            task.fn = [&] { ++ran; };
        EXPECT_THROW(pool.run_tasks(out_of_range), std::runtime_error);
        EXPECT_EQ(ran.load(), 1); // rejected before any task starts
    }
}

TEST(RunTasks, TasksMayCallTheirOwnPool)
{
    // Nested parallel_for and run_tasks calls on the pool that runs
    // the task: a waiting worker runs its own graph, so the calls
    // finish even when every thread of the pool is inside one.
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<long> sum{0};
        std::vector<Task> outer(8);
        for (std::size_t t = 0; t < outer.size(); ++t) {
            if (t >= 2)
                outer[t].deps = {t - 2}; // two interleaved chains
            outer[t].fn = [&] {
                pool.parallel_for(50, ChunkPlan{}, [&](std::size_t i) {
                    sum += static_cast<long>(i);
                });
                std::vector<Task> chain(3);
                for (std::size_t c = 0; c < chain.size(); ++c) {
                    if (c > 0)
                        chain[c].deps = {c - 1};
                    chain[c].fn = [&] { sum += 1000; };
                }
                pool.run_tasks(chain);
            };
        }
        pool.run_tasks(outer);
        EXPECT_EQ(sum.load(), 8 * (49 * 50 / 2 + 3000));
    }

    // A size-2 pool (one worker plus the caller) whose four tasks all
    // block in nested loops, two levels deep.
    ThreadPool pool(2);
    std::atomic<int> leaves{0};
    std::vector<Task> tasks(4);
    for (Task& task : tasks) {
        task.fn = [&] {
            pool.parallel_for(16, ChunkPlan{}, [&](std::size_t) {
                std::vector<Task> inner(2);
                for (Task& leaf : inner)
                    leaf.fn = [&] { ++leaves; };
                pool.run_tasks(inner);
            });
        };
    }
    pool.run_tasks(tasks);
    EXPECT_EQ(leaves.load(), 4 * 16 * 2);
}

TEST(RunTasks, PoolRunsOnAtMostSizeThreads)
{
    // N workers, or the caller alone at size 1: a pool of size N
    // never runs a task on more than N threads, nested calls included.
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::mutex mutex;
        std::set<std::thread::id> seen;
        auto note = [&] {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        };
        pool.parallel_for(64, ChunkPlan{}, [&](std::size_t) {
            note();
            pool.parallel_for(8, ChunkPlan{}, [&](std::size_t) { note(); });
        });
        EXPECT_LE(seen.size(), static_cast<std::size_t>(threads));
    }
}

TEST(RunTasks, OutsideCallerRunsOnlyAOneTaskGraph)
{
    // The workers run a larger graph while its outside caller waits; a
    // one-task graph runs on its caller, and a loop that task starts
    // still finishes on the workers.
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> seen;
    std::vector<Task> tasks(8);
    for (Task& task : tasks) {
        task.fn = [&] {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        };
    }
    pool.run_tasks(tasks);
    EXPECT_EQ(seen.count(caller), 0u);
    EXPECT_LE(seen.size(), 2u);

    std::thread::id ran_on;
    std::atomic<int> items{0};
    std::vector<Task> one(1);
    one[0].fn = [&] {
        ran_on = std::this_thread::get_id();
        pool.parallel_for(16, ChunkPlan{}, [&](std::size_t) { ++items; });
    };
    pool.run_tasks(one);
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(items.load(), 16);
}

TEST(RunTasks, ConcurrentCallersShareOnePool)
{
    // Two outside threads drive one pool at once (rockd's batcher and
    // a test harness may): every loop still covers its items once.
    ThreadPool pool(3);
    std::atomic<int> total{0};
    auto drive = [&] {
        for (int round = 0; round < 40; ++round) {
            std::vector<int> hits(37, 0);
            pool.parallel_for(hits.size(), ChunkPlan{},
                              [&](std::size_t i) { hits[i] += 1; });
            total += std::accumulate(hits.begin(), hits.end(), 0);
        }
    };
    std::thread other(drive);
    drive();
    other.join();
    EXPECT_EQ(total.load(), 2 * 40 * 37);
}

} // namespace
