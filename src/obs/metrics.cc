#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace rock::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            throw std::runtime_error(
                "obs: histogram bounds must be strictly increasing");
    }
}

void
Histogram::observe(double value)
{
    // First bound >= value; past the end = the overflow bucket (NaN
    // included, as no bound compares >= it).
    const std::size_t bucket = static_cast<std::size_t>(
        std::partition_point(bounds_.begin(), bounds_.end(),
                             [value](double b) { return !(value <= b); }) -
        bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::counts() const
{
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double>
Histogram::default_latency_bounds_ms()
{
    // 0.1 ms * 2^(k/4): four buckets per octave, so a quantile read
    // off a bucket bound is within 19% of the true value, and a 2x
    // change moves it by four buckets. k = 80 is 104.9 s.
    std::vector<double> bounds;
    for (int k = 0; k <= 80; ++k)
        bounds.push_back(0.1 * std::exp2(k / 4.0));
    return bounds;
}

Registry&
Registry::global()
{
    static Registry* instance = new Registry; // never destroyed:
    // metric references cached in function-local statics across the
    // whole code base must outlive every other static destructor.
    return *instance;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (gauges_.count(name) || histograms_.count(name))
        throw std::runtime_error("obs: metric '" + name +
                                 "' already registered with another "
                                 "kind");
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.count(name) || histograms_.count(name))
        throw std::runtime_error("obs: metric '" + name +
                                 "' already registered with another "
                                 "kind");
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.count(name) || gauges_.count(name))
        throw std::runtime_error("obs: metric '" + name +
                                 "' already registered with another "
                                 "kind");
    auto& slot = histograms_[name];
    if (!slot) {
        if (bounds.empty())
            bounds = Histogram::default_latency_bounds_ms();
        slot = std::make_unique<Histogram>(std::move(bounds));
    }
    return *slot;
}

void
Registry::reset()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [name, c] : counters_)
            c->reset();
        for (auto& [name, g] : gauges_)
            g->reset();
        for (auto& [name, h] : histograms_)
            h->reset();
    }
    detail::reset_spans();
}

std::map<std::string, std::uint64_t>
Registry::counter_values() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, c] : counters_)
        out[name] = c->value();
    return out;
}

std::map<std::string, double>
Registry::gauge_values() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const auto& [name, g] : gauges_)
        out[name] = g->value();
    return out;
}

} // namespace rock::obs
