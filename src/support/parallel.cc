#include "support/parallel.h"

#include <algorithm>
#include <exception>
#include <queue>
#include <stdexcept>

#include "obs/metrics.h"

namespace rock::support {

namespace {

/**
 * Pool telemetry. Loop/item counts depend only on the call sequence,
 * never on the worker count, so they live in the deterministic
 * counter section; chunk counts and the pool size are scheduling
 * facts and go to the timing section (docs/OBSERVABILITY.md).
 */
struct PoolMetrics {
    obs::Counter& loops =
        obs::Registry::global().counter("threadpool.loops");
    obs::Counter& items =
        obs::Registry::global().counter("threadpool.items");
    obs::Histogram& chunks = obs::Registry::global().histogram(
        "threadpool.loop_chunks");
    obs::Gauge& workers =
        obs::Registry::global().gauge("threadpool.workers");
};

PoolMetrics&
pool_metrics()
{
    static PoolMetrics m;
    return m;
}

/** The pool whose worker_loop() this thread runs (null elsewhere). */
thread_local const ThreadPool* current_pool = nullptr;

} // namespace

int
resolve_threads(int threads)
{
    if (threads != 0)
        return std::max(1, threads);
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<Chunk>
plan_chunks(std::size_t count, std::size_t workers,
            const ChunkPlan& plan)
{
    std::vector<Chunk> chunks;
    if (count == 0)
        return chunks;
    std::size_t grain = std::max<std::size_t>(1, plan.grain);
    std::size_t target_chunks =
        std::max<std::size_t>(1, workers) *
        std::max<std::size_t>(1, plan.chunks_per_worker);
    target_chunks = std::min(target_chunks, (count + grain - 1) / grain);
    target_chunks = std::max<std::size_t>(1, target_chunks);

    if (!plan.costs) {
        // Uniform items: equal-count contiguous slices.
        std::size_t base = count / target_chunks;
        std::size_t extra = count % target_chunks;
        std::size_t begin = 0;
        for (std::size_t c = 0; c < target_chunks; ++c) {
            std::size_t len = base + (c < extra ? 1 : 0);
            if (len == 0)
                continue;
            chunks.push_back({begin, begin + len});
            begin += len;
        }
        return chunks;
    }

    // Cost-balanced: cut whenever the cumulative cost passes the next
    // multiple of total/target (respecting the grain). Zero-cost items
    // are charged 1 so degenerate cost vectors still partition.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i)
        total += std::max<std::uint64_t>(1, plan.costs[i]);
    std::uint64_t per_chunk = std::max<std::uint64_t>(
        1, total / static_cast<std::uint64_t>(target_chunks));

    std::size_t begin = 0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
        acc += std::max<std::uint64_t>(1, plan.costs[i]);
        bool last = i + 1 == count;
        bool full = acc >= per_chunk && (i + 1 - begin) >= grain;
        if (last || full) {
            chunks.push_back({begin, i + 1});
            begin = i + 1;
            acc = 0;
        }
    }
    return chunks;
}

/** One registered run_tasks() graph. Every field but `tasks` is
 *  guarded by the pool's mutex_. */
struct ThreadPool::Graph {
    explicit Graph(std::vector<Task>& tasks_)
        : tasks(tasks_), pending(tasks_.size(), 0),
          dependents(tasks_.size()), remaining(tasks_.size())
    {
    }

    std::vector<Task>& tasks;
    /** Per task: deps not yet finished. */
    std::vector<std::size_t> pending;
    std::vector<std::vector<std::size_t>> dependents;
    /** Lowest index first: a valid topological order that is also the
     *  one fixed serial schedule of the size-1 pool. */
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready;
    /** Tasks neither finished nor cancelled. */
    std::size_t remaining;
    /** Tasks some thread is running right now. */
    std::size_t running = 0;
    /** The registering caller runs ready tasks while it waits. */
    bool caller_runs = false;
    /** The first exception; once set, ready tasks are cancelled. */
    std::exception_ptr error;
    /** Wakes the registering caller: a task became ready (when it runs
     *  tasks), or the graph drained or stalled. */
    std::condition_variable wake;
};

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads))
{
    const int workers = size_ > 1 ? size_ : 0;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

int
ThreadPool::size() const
{
    return size_;
}

void
ThreadPool::wake_workers(std::size_t n)
{
    for (std::size_t k = 0; k < std::min(n, workers_.size()); ++k)
        work_cv_.notify_one();
}

void
ThreadPool::run_ready(Graph& graph, std::unique_lock<std::mutex>& lock)
{
    const std::size_t t = graph.ready.top();
    graph.ready.pop();
    if (!graph.error) {
        ++graph.running;
        lock.unlock();
        std::exception_ptr error;
        try {
            graph.tasks[t].fn();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        --graph.running;
        if (error && !graph.error)
            graph.error = error;
    }
    --graph.remaining;
    std::size_t released = 0;
    for (std::size_t d : graph.dependents[t]) {
        if (--graph.pending[d] == 0) {
            graph.ready.push(d);
            ++released;
        }
    }
    // This thread goes on to take one ready task itself; the caller
    // waiting on the graph needs to hear of new work it may run, the
    // end, or a stall it must diagnose. Notified under the lock: the
    // graph dies as soon as its caller sees it drained.
    if ((released > 0 && graph.caller_runs) ||
        (graph.running == 0 && graph.ready.empty()))
        graph.wake.notify_one();
    if (released > 1)
        wake_workers(released - 1);
}

void
ThreadPool::execute(std::vector<Task>& tasks)
{
    if (tasks.empty())
        return;
    Graph graph(tasks);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (std::size_t d : tasks[i].deps) {
            if (d >= tasks.size()) {
                throw std::runtime_error(
                    "run_tasks: dependency index out of range");
            }
            graph.dependents[d].push_back(i);
            ++graph.pending[i];
        }
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (graph.pending[i] == 0)
            graph.ready.push(i);
    }

    // A worker must run its own nested graph (if every worker only
    // waited, no thread would be left to run it), a pool without
    // workers runs everything on the caller, and a one-task graph
    // needs no other thread. An outside caller of a larger graph only
    // waits: when the thread that runs a reconstruction's serial
    // stages also ran a share of every loop, warm rockd requests at 2
    // workers were about 8% slower (DESIGN.md 5.1).
    graph.caller_runs = current_pool == this || workers_.empty() ||
                        tasks.size() == 1;
    std::unique_lock<std::mutex> lock(mutex_);
    graphs_.push_back(&graph);
    std::size_t for_workers = graph.ready.size();
    if (graph.caller_runs && for_workers > 0)
        --for_workers; // the caller takes the first ready task itself
    wake_workers(for_workers);
    for (;;) {
        if (graph.caller_runs && !graph.ready.empty()) {
            run_ready(graph, lock);
            continue;
        }
        if (graph.remaining == 0)
            break;
        if (graph.running == 0 && graph.ready.empty()) {
            // Tasks left, none ready and none running: the graph
            // cannot make progress (dependency cycle).
            if (!graph.error) {
                graph.error = std::make_exception_ptr(std::runtime_error(
                    "run_tasks: unsatisfiable dependencies"));
            }
            break;
        }
        graph.wake.wait(lock);
    }
    graphs_.erase(std::find(graphs_.begin(), graphs_.end(), &graph));
    lock.unlock();
    if (graph.error)
        std::rethrow_exception(graph.error);
}

void
ThreadPool::parallel_for(std::size_t count, const ChunkPlan& plan,
                         const std::function<void(std::size_t)>& body)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(count);
    metrics.workers.set(size_);
    const std::vector<Chunk> chunks =
        plan_chunks(count, static_cast<std::size_t>(size_), plan);
    // Chunk counts depend on the pool size, so they live in the
    // timing (non-gated) section as a histogram, not a counter.
    metrics.chunks.observe(static_cast<double>(chunks.size()));
    std::vector<Task> tasks;
    tasks.reserve(chunks.size());
    for (const Chunk& chunk : chunks) {
        tasks.push_back({[&body, &chunk] {
                             for (std::size_t i = chunk.begin;
                                  i < chunk.end; ++i)
                                 body(i);
                         },
                         {}});
    }
    execute(tasks);
}

void
ThreadPool::run_tasks(std::vector<Task>& tasks)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(tasks.size());
    metrics.workers.set(size_);
    execute(tasks);
}

void
ThreadPool::worker_loop()
{
    current_pool = this;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto oldest = std::find_if(
            graphs_.begin(), graphs_.end(),
            [](const Graph* graph) { return !graph->ready.empty(); });
        if (oldest != graphs_.end()) {
            run_ready(**oldest, lock);
            continue;
        }
        if (stop_)
            return;
        work_cv_.wait(lock);
    }
}

} // namespace rock::support
