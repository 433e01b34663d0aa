/**
 * @file
 * Deterministic data parallelism for the reconstruction pipeline.
 *
 * The paper's Section 3.2 scalability argument -- the analysis is
 * strictly intra-procedural, so its cost is linear in the number of
 * procedures -- makes every expensive pipeline stage embarrassingly
 * parallel over independent work items (functions, types, edges,
 * families). This header provides the one concurrency primitive the
 * code base uses:
 *
 *  - ThreadPool: a small fixed-size pool of workers that executes
 *    index-space loops (`parallel_for`) and task graphs
 *    (`run_tasks`). A pool of size 1 runs the loop inline on the
 *    caller, making the serial path *exactly* the code the parallel
 *    path runs.
 *
 * There is one scheduling mode, cost-aware dynamic chunks: the index
 * space is pre-partitioned into contiguous chunks of roughly equal
 * *cost* (per-item costs supplied by the caller, e.g. instruction
 * counts; uniform when none are given), and idle workers claim the
 * next unstarted chunk from a shared atomic cursor -- cheap work
 * stealing at chunk granularity, so one expensive item cannot
 * serialize the tail of the loop.
 *
 * Determinism contract: every item writes only its own
 * pre-allocated output slot and callers merge slots in index order
 * afterwards. Chunk *placement* varies with scheduling, but the
 * item->slot mapping never does, so the observable output is
 * bit-identical for every thread count and every schedule, which
 * tests/determinism_test.cc enforces end to end.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rock::support {

/**
 * Resolve a user-facing `threads` knob to a concrete worker count:
 * 0 -> std::thread::hardware_concurrency() (at least 1), otherwise
 * max(1, threads).
 */
int resolve_threads(int threads);

/**
 * How to carve an index space into dynamically scheduled chunks.
 * Pass to ThreadPool::parallel_for(count, plan, body).
 */
struct ChunkPlan {
    /**
     * Optional per-item costs (any non-negative unit: instruction
     * counts, byte sizes, symbol counts). When set, chunk boundaries
     * equalize cumulative cost instead of item count; items of zero
     * cost are charged a floor of 1 so empty items still make
     * progress. Must contain exactly `count` entries when non-null.
     */
    const std::uint64_t* costs = nullptr;
    /** Minimum items per chunk (amortizes dispatch; default 1). */
    std::size_t grain = 1;
    /**
     * Target chunks per worker. >1 lets fast workers steal the slack
     * of slow ones; the default 4 keeps dispatch overhead ~1/4W of
     * the loop while bounding imbalance to ~1 chunk.
     */
    std::size_t chunks_per_worker = 4;
};

/** One contiguous [begin, end) slice of the index space. */
struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * One node of a ThreadPool::run_tasks() dependency graph: a thunk
 * plus the indices of the tasks that must complete before it may run.
 */
struct Task {
    std::function<void()> fn;
    std::vector<std::size_t> deps;
};

/**
 * Partition [0, count) into contiguous chunks of roughly equal cost
 * for @p workers workers under @p plan. Deterministic: depends only
 * on (count, costs, workers, plan), never on scheduling.
 */
std::vector<Chunk> plan_chunks(std::size_t count, std::size_t workers,
                               const ChunkPlan& plan);

/**
 * Fixed-size worker pool for index-space loops.
 *
 * One pool can serve many parallel_for calls (the pipeline reuses a
 * single pool across all its stages); calls are serialized -- the
 * pool runs one loop at a time and parallel_for blocks until the
 * whole index space is done.
 */
class ThreadPool {
  public:
    /**
     * @param threads  resolved worker count (see resolve_threads());
     *                 <= 1 creates no worker threads and runs every
     *                 loop inline on the calling thread.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of threads that execute loop bodies (>= 1). */
    int size() const;

    /**
     * Run @p body(i) for every i in [0, count) over cost-balanced
     * chunks claimed dynamically by idle workers, and block until all
     * of them finish. The first exception thrown by any body is
     * rethrown on the caller after the loop has quiesced; a worker
     * that throws abandons the remainder of its current chunk but
     * other chunks still run. A pool of size 1 executes the chunks
     * in index order inline -- the exact serial instruction stream.
     */
    void parallel_for(std::size_t count, const ChunkPlan& plan,
                      const std::function<void(std::size_t)>& body);

    /**
     * Execute a dependency DAG of tasks: each task runs after all of
     * its deps, idle workers claim whatever is ready (lowest index
     * first), and the call blocks until the whole graph has drained.
     * This is the per-family stage-pipelining primitive: independent
     * chains (one per family) flow through the pool concurrently with
     * no global barrier between pipeline stages.
     *
     * Determinism contract: like parallel_for, each task must write
     * only its own slots; the task *count* and graph shape must not
     * depend on the worker count (they feed the deterministic
     * `threadpool.items` counter). A pool of size 1 runs ready tasks
     * inline in ascending index order -- a valid topological order and
     * the exact serial schedule every time.
     *
     * The first exception thrown by a task cancels every task not yet
     * started (their fns never run) and is rethrown here after the
     * graph drains. A graph with unsatisfiable deps (cycle,
     * out-of-range index) throws without deadlocking.
     */
    void run_tasks(std::vector<Task>& tasks);

  private:
    void worker_loop();
    void run_generation(const std::vector<Chunk>& chunks,
                        const std::function<void(std::size_t)>& body);

    /** Worker count fixed before any thread starts (1 = inline). */
    std::size_t num_workers_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    /** Incremented per parallel_for call; wakes the workers. */
    std::size_t generation_ = 0;
    /** Workers still running the current generation. */
    std::size_t active_ = 0;
    const std::function<void(std::size_t)>* body_ = nullptr;
    /** Chunks of the current generation. */
    const std::vector<Chunk>* chunks_ = nullptr;
    /** Next unclaimed chunk index of the current generation. */
    std::atomic<std::size_t> next_chunk_{0};
    std::exception_ptr error_;
    /** Worker busy-ms summed over the current generation (feeds the
     *  `threadpool.utilization` gauge; see src/obs). */
    double busy_ms_accum_ = 0.0;
    bool stop_ = false;
};

} // namespace rock::support
