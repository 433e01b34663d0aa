#include "obs/trace.h"

#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define ROCK_OBS_HAVE_THREAD_CPUTIME 1
#endif

#include "obs/metrics.h"

namespace rock::obs {

namespace {

struct SpanLog {
    std::mutex mutex;
    std::vector<SpanRecord> records;
    /** Bumped by reset_spans(); ends from a previous generation are
     *  dropped instead of writing into a reused slot. */
    std::uint64_t generation = 0;
};

SpanLog&
log()
{
    static SpanLog* instance = new SpanLog; // never destroyed (see
                                            // Registry::global())
    return *instance;
}

std::chrono::steady_clock::time_point
trace_epoch()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return epoch;
}

double
ms_since_epoch(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(t - trace_epoch())
        .count();
}

double
thread_cpu_ms()
{
#ifdef ROCK_OBS_HAVE_THREAD_CPUTIME
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) * 1e-6;
    }
#endif
    return 0.0;
}

/** Per-thread stack of open span ids (parent linking). */
thread_local std::vector<int> t_open_spans;
/** Generation the ids in t_open_spans belong to. */
thread_local std::uint64_t t_generation = 0;

int
open_span(const std::string& name, int* parent_out)
{
    SpanLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    if (t_generation != l.generation) {
        // The log was reset while this thread had spans open (tests
        // do this between runs); orphan them rather than linking into
        // a cleared log.
        t_open_spans.clear();
        t_generation = l.generation;
    }
    SpanRecord rec;
    rec.id = static_cast<int>(l.records.size());
    rec.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    rec.name = name;
    rec.start_ms = ms_since_epoch(std::chrono::steady_clock::now());
    rec.thread = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    *parent_out = rec.parent;
    l.records.push_back(std::move(rec));
    t_open_spans.push_back(static_cast<int>(l.records.size()) - 1);
    return static_cast<int>(l.records.size()) - 1;
}

void
close_span(int id, std::uint64_t generation, double wall_ms,
           double cpu_ms)
{
    SpanLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    if (!t_open_spans.empty() && t_open_spans.back() == id)
        t_open_spans.pop_back();
    if (generation != l.generation ||
        id >= static_cast<int>(l.records.size()))
        return; // log was reset under us; drop the measurement
    l.records[static_cast<std::size_t>(id)].wall_ms = wall_ms;
    l.records[static_cast<std::size_t>(id)].cpu_ms = cpu_ms;
}

std::uint64_t
current_generation()
{
    SpanLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    return l.generation;
}

} // namespace

/**
 * Span state packing: `parent_` doubles as the record id (>= 0) when
 * active. The generation snapshot detects a reset between open and
 * close.
 */
Span::Span(std::string name) : name_(std::move(name))
{
    if (!metrics_enabled())
        return;
    active_ = true;
    generation_snapshot();
    start_ = std::chrono::steady_clock::now();
    cpu_start_ms_ = thread_cpu_ms();
    int parent = -1;
    id_ = open_span(name_, &parent);
    parent_ = parent;
    start_ms_ = ms_since_epoch(start_);
}

Span::~Span()
{
    end();
}

void
Span::end()
{
    if (!active_)
        return;
    active_ = false;
    wall_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    close_span(id_, generation_, wall_ms_,
               thread_cpu_ms() - cpu_start_ms_);
}

void
Span::generation_snapshot()
{
    generation_ = current_generation();
}

std::vector<SpanRecord>
span_log()
{
    SpanLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    return l.records;
}

namespace detail {

void
reset_spans()
{
    SpanLog& l = log();
    std::lock_guard<std::mutex> lock(l.mutex);
    l.records.clear();
    ++l.generation;
}

} // namespace detail

} // namespace rock::obs
