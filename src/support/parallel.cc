#include "support/parallel.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <stdexcept>

#include "obs/metrics.h"

namespace rock::support {

namespace {

/**
 * Pool telemetry. Loop/item counts depend only on the call sequence,
 * never on the worker count, so they live in the deterministic
 * counter section; busy time and utilization are scheduling facts and
 * go to the timing section (docs/OBSERVABILITY.md).
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
    obs::Gauge& utilization =
        obs::Registry::global().gauge("threadpool.utilization");
    obs::Histogram& busy_ms = obs::Registry::global().histogram(
        "threadpool.worker_busy_ms");
};

PoolMetrics&
pool_metrics()
{
    static PoolMetrics m;
    return m;
}

double
ms_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

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

ThreadPool::ThreadPool(int threads)
{
    int n = std::max(1, threads);
    if (n == 1)
        return;
    num_workers_ = static_cast<std::size_t>(n);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w)
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
    return static_cast<int>(num_workers_);
}

void
ThreadPool::run_generation(const std::vector<Chunk>& chunks,
                           const std::function<void(std::size_t)>& body)
{
    PoolMetrics& metrics = pool_metrics();
    auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    body_ = &body;
    chunks_ = &chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    busy_ms_accum_ = 0.0;
    active_ = num_workers_;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return active_ == 0; });
    body_ = nullptr;
    chunks_ = nullptr;
    double wall = ms_between(t0, std::chrono::steady_clock::now());
    if (wall > 0.0) {
        metrics.utilization.set(
            busy_ms_accum_ /
            (wall * static_cast<double>(num_workers_)));
    }
    if (error_) {
        std::exception_ptr err = error_;
        error_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallel_for(std::size_t count, const ChunkPlan& plan,
                         const std::function<void(std::size_t)>& body)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(count);
    metrics.workers.set(static_cast<double>(num_workers_));

    std::vector<Chunk> chunks = plan_chunks(count, num_workers_, plan);
    // Chunk counts depend on the pool size, so they live in the
    // timing (non-gated) section as a histogram, not a counter.
    metrics.chunks.observe(static_cast<double>(chunks.size()));

    if (workers_.empty() || chunks.size() < 2) {
        // Inline: chunks in index order == the plain serial loop.
        auto t0 = std::chrono::steady_clock::now();
        for (const Chunk& c : chunks) {
            for (std::size_t i = c.begin; i < c.end; ++i)
                body(i);
        }
        double busy =
            ms_between(t0, std::chrono::steady_clock::now());
        metrics.busy_ms.observe(busy);
        metrics.utilization.set(1.0);
        return;
    }

    run_generation(chunks, body);
}

void
ThreadPool::run_tasks(std::vector<Task>& tasks)
{
    PoolMetrics& metrics = pool_metrics();
    metrics.loops.add();
    metrics.items.add(tasks.size());
    metrics.workers.set(static_cast<double>(num_workers_));
    if (tasks.empty())
        return;

    const std::size_t n = tasks.size();
    std::vector<std::size_t> pending(n, 0);
    std::vector<std::vector<std::size_t>> dependents(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d : tasks[i].deps) {
            if (d >= n) {
                throw std::runtime_error(
                    "run_tasks: dependency index out of range");
            }
            dependents[d].push_back(i);
            ++pending[i];
        }
    }

    // Lowest ready index first: a valid topological order that is
    // also the one fixed serial schedule of the size-1 pool.
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready;
    for (std::size_t i = 0; i < n; ++i) {
        if (pending[i] == 0)
            ready.push(i);
    }

    std::size_t remaining = n;
    std::exception_ptr first_error;
    bool cancelled = false;

    auto finish_task = [&](std::size_t t) {
        --remaining;
        for (std::size_t dep : dependents[t]) {
            if (--pending[dep] == 0)
                ready.push(dep);
        }
    };

    if (workers_.empty() || n < 2) {
        auto t0 = std::chrono::steady_clock::now();
        while (remaining > 0) {
            if (ready.empty())
                throw std::runtime_error(
                    "run_tasks: unsatisfiable dependencies");
            std::size_t t = ready.top();
            ready.pop();
            if (!cancelled) {
                try {
                    tasks[t].fn();
                } catch (...) {
                    if (!first_error)
                        first_error = std::current_exception();
                    cancelled = true;
                }
            }
            finish_task(t);
        }
        metrics.busy_ms.observe(
            ms_between(t0, std::chrono::steady_clock::now()));
        metrics.utilization.set(1.0);
        if (first_error)
            std::rethrow_exception(first_error);
        return;
    }

    std::mutex m;
    std::condition_variable cv;
    std::size_t running = 0;
    std::function<void(std::size_t)> body = [&](std::size_t) {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            while (ready.empty() && remaining > 0 && running > 0)
                cv.wait(lock);
            if (remaining == 0) {
                cv.notify_all();
                return;
            }
            if (ready.empty()) {
                // No runnable task, none in flight, work left: the
                // graph cannot make progress (dependency cycle).
                if (!first_error) {
                    first_error =
                        std::make_exception_ptr(std::runtime_error(
                            "run_tasks: unsatisfiable dependencies"));
                }
                cancelled = true;
                remaining = 0;
                cv.notify_all();
                return;
            }
            std::size_t t = ready.top();
            ready.pop();
            ++running;
            bool skip = cancelled;
            lock.unlock();
            if (!skip) {
                try {
                    tasks[t].fn();
                } catch (...) {
                    lock.lock();
                    if (!first_error)
                        first_error = std::current_exception();
                    cancelled = true;
                    lock.unlock();
                }
            }
            lock.lock();
            --running;
            finish_task(t);
            if (remaining == 0 || !ready.empty())
                cv.notify_all();
        }
    };
    // One chunk per worker: each runs the claim loop above once.
    std::vector<Chunk> per_worker;
    for (std::size_t w = 0; w < num_workers_; ++w)
        per_worker.push_back({w, w + 1});
    run_generation(per_worker, body);
    if (first_error)
        std::rethrow_exception(first_error);
}

void
ThreadPool::worker_loop()
{
    std::size_t seen_generation = 0;
    for (;;) {
        const std::function<void(std::size_t)>* body;
        const std::vector<Chunk>* chunks;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen_generation;
            });
            if (stop_)
                return;
            seen_generation = generation_;
            body = body_;
            chunks = chunks_;
        }
        auto t0 = std::chrono::steady_clock::now();
        try {
            // Idle workers claim the next unstarted chunk. Placement
            // depends on scheduling; per-item effects never do
            // (slot-confined writes).
            for (;;) {
                std::size_t c =
                    next_chunk_.fetch_add(1, std::memory_order_relaxed);
                if (c >= chunks->size())
                    break;
                const Chunk& chunk = (*chunks)[c];
                for (std::size_t i = chunk.begin; i < chunk.end; ++i)
                    (*body)(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
        double busy =
            ms_between(t0, std::chrono::steady_clock::now());
        pool_metrics().busy_ms.observe(busy);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            busy_ms_accum_ += busy;
            if (--active_ == 0)
                done_cv_.notify_all();
        }
    }
}

} // namespace rock::support
