/**
 * @file
 * Lightweight span tracing: nested RAII spans with wall time,
 * per-thread CPU time, thread id and parent links.
 *
 * A Span marks one timed region. Spans opened while another span is
 * open *on the same thread* become its children (a thread_local stack
 * carries the parent link); spans on pool workers start their own
 * roots. Completed spans land in a process-global log that
 * MetricsReport snapshots into the non-deterministic "timing" section
 * of the JSON schema -- span *timings and log order* are never part
 * of the determinism contract, only counters are.
 *
 * Cost contract: when metrics are disabled (set_metrics_enabled),
 * constructing and destroying a Span costs one relaxed atomic load
 * and two branch tests -- no clock reads, no allocation, no lock.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rock::obs {

/** One completed span as recorded in the global log. */
struct SpanRecord {
    /** Log index; parents always precede children. */
    int id = 0;
    /** Index of the enclosing span on the same thread, or -1. */
    int parent = -1;
    std::string name;
    /** Wall clock at open, ms since the process's trace epoch. */
    double start_ms = 0.0;
    /** Wall-clock duration. */
    double wall_ms = 0.0;
    /** CPU time consumed by the opening thread inside the span. */
    double cpu_ms = 0.0;
    /** Hash of the opening thread's id. */
    std::uint64_t thread = 0;

    bool operator==(const SpanRecord&) const = default;
};

/**
 * RAII timed region. end() (or destruction) records the span; after
 * end(), wall_ms() returns the measured duration so callers can
 * mirror it into legacy fields (StageTiming is populated exactly this
 * way).
 */
class Span {
  public:
    explicit Span(std::string name);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Close and record the span (idempotent). */
    void end();

    /** Measured wall-clock duration; 0 until end(), and 0 forever
     *  when tracing was disabled at construction. */
    double wall_ms() const { return wall_ms_; }

  private:
    void generation_snapshot();

    std::string name_;
    std::chrono::steady_clock::time_point start_;
    double start_ms_ = 0.0;
    double cpu_start_ms_ = 0.0;
    int id_ = -1;
    int parent_ = -1;
    std::uint64_t generation_ = 0;
    double wall_ms_ = 0.0;
    bool active_ = false;
};

/** Snapshot of the global span log, in span-open order;
 *  SpanRecord::id matches the vector position and parent ids refer
 *  into the same vector (a parent always opens before its children).
 *  Spans still open at snapshot time have wall_ms 0. */
std::vector<SpanRecord> span_log();

namespace detail {

/** Clear the span log (Registry::reset() calls this). */
void reset_spans();

} // namespace detail

} // namespace rock::obs
