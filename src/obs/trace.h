/**
 * @file
 * Lightweight span tracing: nested RAII spans with wall time,
 * per-thread CPU time, thread id and parent links, recorded into the
 * obs::Trace of the call they belong to.
 *
 * A Trace is one call's span tree: a reconstruct() run from a tool, a
 * rockd request, a fuzz campaign. Each thread has a current trace
 * context -- a trace and the span open in it -- and a Span records into
 * that trace as a child of that span, becoming the context until it
 * closes and restores its parent. A thread with no trace installed
 * records into the process trace (process_trace(), which one-shot
 * tools report through MetricsReport::capture()). A pool task runs
 * under the context of the thread that submitted its graph
 * (support::ThreadPool), so spans opened on workers nest under the
 * span of the call that fanned them out instead of starting roots of
 * their own; a long-lived server installs one trace per request
 * (ContextScope) and drops it when it is done, so nothing grows with
 * the request count.
 *
 * Span *timings and record order* are never part of the determinism
 * contract, only counters are; MetricsReport puts spans in the
 * non-deterministic "timing" section of its JSON schema.
 *
 * Cost contract: when metrics are disabled (set_metrics_enabled),
 * constructing and destroying a Span costs one relaxed atomic load
 * and two branch tests -- no clock reads, no allocation, no lock.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rock::obs {

/** One span as recorded in its trace. */
struct SpanRecord {
    /** Index in the trace; parents always precede children. */
    int id = 0;
    /** Index of the enclosing span in the same trace, or -1. */
    int parent = -1;
    std::string name;
    /** Wall clock at open, ms since the process's trace epoch. */
    double start_ms = 0.0;
    /** Wall-clock duration; 0 while the span is open. */
    double wall_ms = 0.0;
    /** CPU time consumed by the opening thread inside the span. */
    double cpu_ms = 0.0;
    /** Hash of the opening thread's id. */
    std::uint64_t thread = 0;

    bool operator==(const SpanRecord&) const = default;
};

/** One call's span tree. Any number of threads may record into it. */
class Trace {
  public:
    /** Snapshot in span-open order: SpanRecord::id is the vector
     *  position, and parent ids refer into the same vector. */
    std::vector<SpanRecord> spans() const;

    /** Wall time per span name over span @p root and every span
     *  below it, summed in open order. */
    std::map<std::string, double> subtree_wall_ms(int root) const;

  private:
    friend class Span;

    mutable std::mutex mutex_;
    std::vector<SpanRecord> records_;
};

/** Where the calling thread's next span goes: into @ref trace under
 *  span @ref span, or, when trace is null, into the process trace as
 *  a root. */
struct TraceContext {
    std::shared_ptr<Trace> trace;
    int span = -1;
};

/** The calling thread's current context. */
TraceContext current_context();

/**
 * Makes @p context the calling thread's for the scope and restores
 * the previous one on exit. A pool task runs under its submitter's
 * context; a server installs a fresh trace per request.
 */
class ContextScope {
  public:
    explicit ContextScope(TraceContext context);
    ~ContextScope();

    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

  private:
    TraceContext saved_;
};

/**
 * RAII timed region in the calling thread's current trace. end() (or
 * destruction) records its times and restores the enclosing span as
 * the context; spans on one thread close in reverse open order, as
 * scoped use guarantees.
 */
class Span {
  public:
    explicit Span(std::string name);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Close and record the span (idempotent). */
    void end();

    /** Trace::subtree_wall_ms() of this span; empty when tracing was
     *  disabled at construction. Read it after end(). */
    std::map<std::string, double> subtree_wall_ms() const;

  private:
    std::chrono::steady_clock::time_point start_;
    double cpu_start_ms_ = 0.0;
    /** The context this span replaced; null trace when inactive. */
    TraceContext saved_;
    std::shared_ptr<Trace> trace_;
    int id_ = -1;
    bool active_ = false;
};

/** The trace that spans of threads with none installed record into. */
std::shared_ptr<Trace> process_trace();

/** process_trace()->spans(). Spans still open have wall_ms 0. */
std::vector<SpanRecord> span_log();

namespace detail {

/** Start a fresh process trace (Registry::reset() calls this). Spans
 *  open at the time finish in the trace they opened in. */
void reset_spans();

} // namespace detail

} // namespace rock::obs
