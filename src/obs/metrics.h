/**
 * @file
 * Thread-safe metrics: counters, gauges, fixed-bucket histograms.
 *
 * The pipeline's measurement substrate (ISSUE: every future perf PR
 * gates on it). Three metric kinds live in a process-global Registry:
 *
 *  - Counter: monotonic uint64. The *deterministic* kind -- counters
 *    count work items (tracelets extracted, DKL pairs computed,
 *    Edmonds contractions...), never scheduling artifacts, so their
 *    totals are bit-identical for every RockConfig::threads value
 *    (tests/determinism_test.cc asserts this end to end).
 *  - Gauge: last-written double (worker counts, memory). Not
 *    covered by the determinism contract.
 *  - Histogram: fixed upper-bound buckets + count + sum, for latency
 *    distributions. Not deterministic either (it observes wall time).
 *
 * Cost: metrics always record; a counter add is one relaxed
 * fetch_add on an atomic every thread shares. Callers cache the metric
 * reference in a function-local static so the by-name registry lookup
 * (mutex + map) happens once per process:
 *
 *     static obs::Counter& c =
 *         obs::Registry::global().counter("slm.models_trained");
 *     c.add();
 *
 * The per-event work of the three hottest loops -- PPM escapes, DKL
 * pairs and words, Edmonds contractions -- never touches a shared
 * atomic. Each thread tallies it (slm::thread_escape_tally(),
 * divergence::thread_pair_tally(), graph::thread_contraction_tally()),
 * and reconstruct() adds each family's totals to `slm.escapes`,
 * `divergence.pairs`, `divergence.words` and
 * `graph.edmonds.contractions` once, at one site, whether it measured
 * them or decoded them from a cache hit.
 *
 * Registry::reset() zeroes values *in place*: metric references
 * remain valid for the life of the process (required by the caching
 * idiom above).
 *
 * Naming convention: dotted lowercase "layer.thing[.detail]", units
 * suffixed where not obvious ("_ms"). docs/OBSERVABILITY.md carries
 * the full catalog.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rock::obs {

/** Monotonic event count. Deterministic across thread counts. */
class Counter {
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written scalar (non-deterministic section of the report). */
class Gauge {
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed,
            std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i] (first matching bucket); one implicit overflow
 * bucket catches everything above the last bound. Bounds are fixed at
 * registration and shared by every observer.
 */
class Histogram {
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    const std::vector<double>& bounds() const { return bounds_; }
    /** Per-bucket counts, bounds().size() + 1 entries (overflow
     *  last). */
    std::vector<std::uint64_t> counts() const;
    std::uint64_t count() const;
    double sum() const;
    void reset();

    /** Default latency bounds: log-linear, four per octave from
     *  0.1 ms to 104.9 s (81 bounds). */
    static std::vector<double> default_latency_bounds_ms();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Process-global named-metric registry. Registration (first lookup of
 * a name) takes a mutex; the returned reference is stable forever.
 * Looking up an existing name with a mismatched kind throws
 * std::runtime_error (names are global; keep the catalog consistent).
 */
class Registry {
  public:
    /** The process-wide registry every layer records into. */
    static Registry& global();

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /** @p bounds used on first registration only (empty = default
     *  latency bounds). */
    Histogram& histogram(const std::string& name,
                         std::vector<double> bounds = {});

    /** Zero every metric in place and clear the span log. Metric
     *  references stay valid. */
    void reset();

    /** Name -> value of every counter, sorted (snapshot). */
    std::map<std::string, std::uint64_t> counter_values() const;
    std::map<std::string, double> gauge_values() const;

    /** Visit histograms as (name, bounds, counts, count, sum). */
    template <typename Fn>
    void
    visit_histograms(Fn&& fn) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& [name, h] : histograms_)
            fn(name, h->bounds(), h->counts(), h->count(), h->sum());
    }

  private:
    friend class Span;
    friend struct MetricsReport;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace rock::obs
