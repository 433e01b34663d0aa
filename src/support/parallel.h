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
 *  - ThreadPool: one executor for dependency graphs of tasks
 *    (`run_tasks`). An index-space loop (`parallel_for`) is such a
 *    graph: one independent task per cost-planned chunk. A pool of
 *    size N > 1 owns N worker threads that run every graph; a worker
 *    that calls run_tasks or parallel_for runs its own graph's ready
 *    tasks while it waits, so a task may call them on the pool that
 *    runs it. Several threads may share one pool. A pool of size 1
 *    owns no worker and runs every task inline on its caller, making
 *    the serial path *exactly* the code the parallel path runs.
 *
 * Scheduling: every graph registers with the pool until it drains.
 * An idle worker takes the lowest-index ready task of the oldest
 * registered graph. A caller runs its own graph's ready tasks, lowest
 * index first, when it is a worker, when the pool has none, or when
 * the graph is a single task; any other caller only waits, so the
 * thread that runs a reconstruction's serial stages does not also
 * run a share of its loops (measured slower, DESIGN.md 5.1). Loops
 * are pre-partitioned into contiguous chunks of roughly equal *cost*
 * (per-item costs supplied by the caller, e.g. instruction counts;
 * uniform when none are given), so one expensive item cannot
 * serialize the tail of the loop.
 *
 * Tracing: a graph carries its caller's obs::TraceContext (the trace
 * and the span open on the calling thread), and every task runs under
 * it, whichever thread runs it, so a task's spans nest under the span
 * of the call that submitted the graph (obs/trace.h).
 *
 * Determinism contract: every item writes only its own
 * pre-allocated output slot and callers merge slots in index order
 * afterwards. Chunk *placement* varies with scheduling, but the
 * item->slot mapping never does, so the observable output is
 * bit-identical for every thread count and every schedule, which
 * tests/determinism_test.cc enforces end to end.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
 * How to carve an index space into chunks.
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
 * Fixed-size task executor. Any number of threads may call
 * parallel_for and run_tasks on one pool at once, tasks included:
 * each call blocks until its own graph has drained. A call made by
 * one of the pool's workers runs that graph's ready tasks meanwhile,
 * so nested calls cannot deadlock.
 */
class ThreadPool {
  public:
    /**
     * @param threads  resolved thread count (see resolve_threads());
     *                 the pool starts that many workers when it is
     *                 > 1, and none otherwise: then every task runs
     *                 inline on the calling thread.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Threads that run the pool's tasks: its workers, or the caller
     *  alone when it has none (>= 1). */
    int size() const;

    /**
     * Run @p body(i) for every i in [0, count): one independent task
     * per chunk of plan_chunks(count, size(), plan), run as a
     * run_tasks() graph, so a pool of size 1 executes the chunks in
     * index order inline -- the exact serial instruction stream. The
     * first exception thrown by a body abandons the rest of its chunk,
     * cancels the chunks not yet started and is rethrown here once
     * the running ones finish.
     */
    void parallel_for(std::size_t count, const ChunkPlan& plan,
                      const std::function<void(std::size_t)>& body);

    /**
     * Execute a dependency DAG of tasks: each task runs after all of
     * its deps, ready tasks run lowest index first, and the call
     * blocks until the whole graph has drained. This is the
     * per-family stage-pipelining primitive: independent chains (one
     * per family) flow through the pool concurrently with no global
     * barrier between pipeline stages.
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
    struct Graph;

    /** Register @p tasks as a graph, run it, rethrow its error. */
    void execute(std::vector<Task>& tasks);
    /** Run (or cancel) the lowest ready task of @p graph; @p lock
     *  holds mutex_ and is released while the task runs. */
    void run_ready(Graph& graph, std::unique_lock<std::mutex>& lock);
    /** Wake up to @p n idle workers. */
    void wake_workers(std::size_t n);
    void worker_loop();

    int size_ = 1;
    std::mutex mutex_;
    /** Signals idle workers that a registered graph has ready tasks
     *  (or that the pool is stopping). */
    std::condition_variable work_cv_;
    /** Graphs with tasks left, oldest first; each lives on the stack
     *  of the call that registered it. */
    std::vector<Graph*> graphs_;
    bool stop_ = false;
    /** Last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace rock::support
