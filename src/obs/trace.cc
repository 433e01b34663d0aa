#include "obs/trace.h"

#include <functional>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define ROCK_OBS_HAVE_THREAD_CPUTIME 1
#endif

namespace rock::obs {

namespace {

struct ProcessTrace {
    std::mutex mutex;
    std::shared_ptr<Trace> trace = std::make_shared<Trace>();
};

ProcessTrace&
process()
{
    static ProcessTrace* instance = new ProcessTrace; // never destroyed
                                                      // (see
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

/** The calling thread's trace context. */
thread_local TraceContext t_context;

} // namespace

std::vector<SpanRecord>
Trace::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::map<std::string, double>
Trace::subtree_wall_ms(int root) const
{
    std::map<std::string, double> totals;
    std::lock_guard<std::mutex> lock(mutex_);
    if (root < 0 || root >= static_cast<int>(records_.size()))
        return totals;
    // Descendants open after their ancestors, so one forward pass from
    // the root decides membership from each parent's.
    const auto first = static_cast<std::size_t>(root);
    std::vector<char> inside(records_.size() - first, 0);
    inside[0] = 1;
    for (std::size_t i = first; i < records_.size(); ++i) {
        const SpanRecord& rec = records_[i];
        if (i > first &&
            !(rec.parent >= root &&
              inside[static_cast<std::size_t>(rec.parent) - first]))
            continue;
        inside[i - first] = 1;
        totals[rec.name] += rec.wall_ms;
    }
    return totals;
}

TraceContext
current_context()
{
    return t_context;
}

ContextScope::ContextScope(TraceContext context)
    : saved_(std::exchange(t_context, std::move(context)))
{
}

ContextScope::~ContextScope()
{
    t_context = std::move(saved_);
}

Span::Span(std::string name)
{
    start_ = std::chrono::steady_clock::now();
    cpu_start_ms_ = thread_cpu_ms();
    trace_ = t_context.trace ? t_context.trace : process_trace();
    SpanRecord rec;
    rec.parent = t_context.trace ? t_context.span : -1;
    rec.name = std::move(name);
    rec.start_ms = ms_since_epoch(start_);
    rec.thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    {
        std::lock_guard<std::mutex> lock(trace_->mutex_);
        id_ = static_cast<int>(trace_->records_.size());
        rec.id = id_;
        trace_->records_.push_back(std::move(rec));
    }
    saved_ = std::exchange(t_context, TraceContext{trace_, id_});
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
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    const double cpu_ms = thread_cpu_ms() - cpu_start_ms_;
    {
        std::lock_guard<std::mutex> lock(trace_->mutex_);
        SpanRecord& rec = trace_->records_[static_cast<std::size_t>(id_)];
        rec.wall_ms = wall_ms;
        rec.cpu_ms = cpu_ms;
    }
    t_context = std::move(saved_);
}

std::map<std::string, double>
Span::subtree_wall_ms() const
{
    return trace_->subtree_wall_ms(id_);
}

std::shared_ptr<Trace>
process_trace()
{
    ProcessTrace& p = process();
    std::lock_guard<std::mutex> lock(p.mutex);
    return p.trace;
}

std::vector<SpanRecord>
span_log()
{
    return process_trace()->spans();
}

namespace detail {

void
reset_spans()
{
    auto fresh = std::make_shared<Trace>();
    ProcessTrace& p = process();
    std::lock_guard<std::mutex> lock(p.mutex);
    p.trace.swap(fresh);
}

} // namespace detail

} // namespace rock::obs
