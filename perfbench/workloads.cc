#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cache/artifact_cache.h"
#include "eval/application_distance.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rock/pipeline.h"
#include "serve/server.h"
#include "serve_load.h"

namespace perfbench {

using namespace rock;
using Clock = std::chrono::steady_clock;

namespace {

double
ms_since(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

double
peak_rss_mb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
fmt(const char* format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** Paper §6.3 application distance pooled over images: the mean over
 *  all types of missing plus added successors, for the worst
 *  surviving co-optimal alternative. */
class AppDistance {
  public:
    void
    add(const core::ReconstructionResult& r, const eval::GroundTruth& gt)
    {
        const eval::AppDistance d = eval::application_distance_worst(r, gt);
        sum_ += (d.avg_missing + d.avg_added) * d.num_types;
        types_ += d.num_types;
    }
    double mean() const { return types_ ? sum_ / types_ : 0.0; }
    long types() const { return types_; }

  private:
    double sum_ = 0.0;
    long types_ = 0;
};

/** Set-up times of one run. */
struct SetupTime {
    /** Median seconds of one set-up. */
    double median_s = 0.0;
    std::size_t runs = 0;
};

/**
 * Run @p setup at least sizes.setup_min_repeats times, and again
 * until sizes.setup_min_seconds have been spent in it, so a set-up of
 * a tenth of a second is timed over many samples.
 */
template <typename Fn>
SetupTime
timed_setups(const Sizes& sizes, Fn&& setup)
{
    std::vector<double> seconds;
    double spent = 0.0;
    while (seconds.size() <
               static_cast<std::size_t>(std::max(1, sizes.setup_min_repeats)) ||
           (spent < sizes.setup_min_seconds &&
            seconds.size() < kSetupMaxRepeats)) {
        const Clock::time_point t = Clock::now();
        setup();
        seconds.push_back(ms_since(t) / 1000.0);
        spent += seconds.back();
    }
    return {median(seconds), seconds.size()};
}

void
add_setup(Report& report, const SetupTime& setup, const std::string& what)
{
    report.add("setup_s", setup.median_s, "s",
               "median of " + std::to_string(setup.runs) +
                   " set-ups: " + what);
}

/** latency_ms_p50 and latency_ms_tail over @p ms. */
void
add_latency(Report& report, const std::vector<double>& ms,
            const std::string& what)
{
    const std::string n = std::to_string(ms.size());
    report.add("latency_ms_p50", median(ms), "ms",
               "median of " + n + " " + what);
    const Tail tail = latency_tail(ms);
    if (tail.found) {
        report.add("latency_ms_tail", tail.value, "ms",
                   fmt("p%g", tail.pct) + ", " +
                       std::to_string(tail.beyond) + " of " + n +
                       " samples beyond");
    } else {
        // Every end-to-end name is printed on every workload; with
        // fewer than 20 samples no percentile has ten beyond it, so
        // the median stands in and says so.
        report.add("latency_ms_tail", median(ms), "ms",
                   "no tail: " + n +
                       " samples leave fewer than 10 beyond p50; "
                       "median shown");
    }
}

/** Per-layer values that only some workloads produce; the defaults
 *  are what a workload that never touches the layer reads. */
struct LayerExtras {
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    double cache_bytes = 0.0;
    double serve_roundtrip_ms_p50 = 0.0;
    double serve_waves = 0.0;
    double serve_wave_size_mean = 0.0;
    double serve_dedup_ratio = 0.0;
    double gen_lag_ms_max = 0.0;
    double gen_late_requests = 0.0;
    /** reconstruct(threads=1) runs on a one-worker pool, inline. */
    double pool_workers = 1.0;
    double pool_thread_delta_ms = 0.0;
    double tail_samples_beyond = 0.0;
    /** Median over ops of unattributed_ms(), summed per op. */
    double rock_unattributed_ms = 0.0;
};

/** The part of a reconstruct() call's wall time that its own
 *  StageTiming assigns to no stage: glue, merges, cache probes. */
double
unattributed_ms(const core::StageTiming& t)
{
    return t.total_ms - (t.cfg_ms + t.verify_ms + t.analyze_ms +
                         t.structural_ms + t.typeinf_ms + t.train_ms +
                         t.distances_ms + t.arborescence_ms);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Every per-layer metric, in BENCHMARK.json order. Times are medians
 * over @p ops of per-op sums of span self time; counts are one op's.
 */
void
add_layer_metrics(Report& report, const SpanRecorder& rec,
                  const std::vector<int>& ops, const LayerCounts& counts,
                  const LayerExtras& x)
{
    using ByOp = std::map<int, std::map<std::string, double>>;
    const ByOp self = rec.self_ms_by_op();
    ByOp total;
    std::map<int, double> max_family;
    for (const SpanRecorder::Span& s : rec.spans()) {
        total[s.op][s.name] += s.ms();
        if (s.name == "graph")
            max_family[s.op] = std::max(max_family[s.op], s.ms());
    }
    auto at = [](const ByOp& by_op, int op, const std::string& name) {
        auto it = by_op.find(op);
        if (it == by_op.end())
            return 0.0;
        auto jt = it->second.find(name);
        return jt == it->second.end() ? 0.0 : jt->second;
    };
    auto per_op = [&](auto&& value) {
        std::vector<double> v;
        for (int op : ops)
            v.push_back(value(op));
        return median(v);
    };
    auto layer_ms = [&](const char* span) {
        return per_op([&](int op) { return at(self, op, span); });
    };
    auto c = [](std::uint64_t v) { return static_cast<double>(v); };

    report.add("cfg.build_ms", layer_ms("cfg.build"), "ms");
    report.add("cfg.verify_ms", layer_ms("cfg.verify"), "ms");
    report.add("cfg.functions", c(counts.cfg_functions), "count");
    report.add("analysis.ms", layer_ms("analysis"), "ms");
    report.add("analysis.paths", c(counts.analysis_paths), "count");
    report.add("analysis.tracelets", c(counts.analysis_tracelets), "count");
    report.add("structural.ms", layer_ms("structural"), "ms");
    report.add("structural.feasible_edges",
               c(counts.structural_feasible_edges), "count");
    report.add("typeinf.ms", layer_ms("typeinf"), "ms");
    report.add("typeinf.constraints", c(counts.typeinf_constraints),
               "count");
    report.add("typeinf.edges_pruned", c(counts.typeinf_edges_pruned),
               "count");
    report.add("slm.train_ms", layer_ms("slm.train"), "ms");
    report.add("slm.trie_nodes", c(counts.slm_trie_nodes), "count");
    report.add("slm.escapes", c(counts.slm_escapes), "count");
    report.add("divergence.ms", layer_ms("divergence"), "ms");
    report.add("divergence.pairs", c(counts.divergence_pairs), "count");
    report.add("divergence.words", c(counts.divergence_words), "count");
    report.add("graph.ms", layer_ms("graph"), "ms");
    report.add("graph.max_family_ms",
               per_op([&](int op) { return max_family[op]; }), "ms");
    report.add("graph.contractions", c(counts.graph_contractions), "count");
    report.add("graph.forests", c(counts.graph_forests), "count");
    report.add("graph.kept_ratio",
               ratio(c(counts.graph_kept), c(counts.graph_forests)),
               "ratio", "forests kept by the majority vote / enumerated");
    report.add("cache.hits", x.cache_hits, "count");
    report.add("cache.misses", x.cache_misses, "count");
    report.add("cache.hit_ratio",
               ratio(x.cache_hits, x.cache_hits + x.cache_misses), "ratio");
    report.add("cache.bytes", x.cache_bytes, "bytes");
    report.add("serve.roundtrip_ms_p50", x.serve_roundtrip_ms_p50, "ms",
               "client send to receive");
    report.add("serve.waves", x.serve_waves, "count");
    report.add("serve.wave_size_mean", x.serve_wave_size_mean, "count");
    report.add("serve.dedup_ratio", x.serve_dedup_ratio, "ratio");
    report.add("gen.lag_ms_max", x.gen_lag_ms_max, "ms");
    report.add("gen.late_requests", x.gen_late_requests, "count",
               "sent a whole inter-arrival gap or more behind schedule");
    report.add("pool.workers", x.pool_workers, "count");
    report.add("pool.thread_delta_ms", x.pool_thread_delta_ms, "ms",
               "warm submit at " + std::to_string(kPoolDeltaThreads) +
                   " threads minus threads=1");
    report.add("rock.unattributed_ms", x.rock_unattributed_ms, "ms",
               "reconstruct()'s total_ms minus its StageTiming stages, "
               "same call");
    report.add("trace.overhead_ms", per_op([&](int op) {
                   return at(total, op, "op") -
                          at(total, op, "rock.reconstruct");
               }),
               "ms",
               "traced op wall time beyond its reconstruct() calls: the "
               "replays and checks");
    report.add("trace.reconstruct_ms", per_op([&](int op) {
                   return at(total, op, "rock.reconstruct");
               }),
               "ms", "reconstruct() wall time inside the traced run");
    report.add("tail.samples_beyond", x.tail_samples_beyond, "count",
               "samples beyond the latency_ms_tail percentile");
}

/** Digest bookkeeping: each input's first result is the reference
 *  every later op on it must match bit for bit. */
class Consistency {
  public:
    void expect(std::size_t input, std::uint64_t digest)
    {
        digests_[input] = digest;
    }

    /** Empty when @p r is complete and matches the reference. */
    std::string
    check(std::size_t input, const core::ReconstructionResult& r)
    {
        if (!covers_all_types(r))
            return "hierarchy does not cover every discovered type";
        const std::uint64_t d = result_digest(r);
        auto [it, fresh] = digests_.emplace(input, d);
        if (!fresh && it->second != d)
            return "result differs from the reference result";
        return {};
    }

  private:
    std::map<std::size_t, std::uint64_t> digests_;
};

/** What a batch workload feeds run_batch(). */
struct Batch {
    std::vector<const Input*> inputs;
    core::RockConfig config;
    std::shared_ptr<cache::ArtifactCache> store;
    Consistency consistency;
    /** Replay slm/divergence/graph too (false for warm runs). */
    bool replay_tail = true;
    SetupTime setup;
    std::string setup_what;
    std::string op_what;
};

Report
run_batch(const RunOptions& o, Batch& batch)
{
    Report report;
    SpanRecorder rec;
    std::vector<double> op_ms;
    std::vector<int> ops;
    std::vector<LayerCounts> op_counts;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> op_cache;
    std::vector<double> op_unattributed;
    std::uint64_t types_per_op = 0;
    AppDistance app;

    const Clock::time_point start = Clock::now();
    int op = 0;
    do {
        ++report.attempted;
        rec.set_op(op);
        std::string why;
        double ms = 0.0;
        double unattributed = 0.0;
        std::uint64_t types = 0;
        LayerCounts counts;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        {
            std::optional<SpanRecorder::Scope> op_span;
            if (o.trace)
                op_span.emplace(rec, "op");
            for (std::size_t i = 0; i < batch.inputs.size() && why.empty();
                 ++i) {
                const Input& in = *batch.inputs[i];
                const bir::BinaryImage& image = in.compiled.image;
                // A fresh span log per call, as in a one-shot rockhier
                // process: the program's log grows with every span and
                // reconstruct() scans it, so a long-lived process would
                // slow down with the op count.
                obs::detail::reset_spans();
                const cache::CacheStats before =
                    batch.store ? batch.store->stats() : cache::CacheStats{};
                core::ReconstructionResult r;
                const Clock::time_point t = Clock::now();
                try {
                    std::optional<SpanRecorder::Scope> span;
                    if (o.trace)
                        span.emplace(rec, "rock.reconstruct");
                    r = core::reconstruct(image, batch.config);
                } catch (const std::exception& e) {
                    why = in.name + ": reconstruct() threw: " + e.what();
                    break;
                }
                ms += ms_since(t);
                unattributed += unattributed_ms(r.timing);
                if (batch.store) {
                    const cache::CacheStats after = batch.store->stats();
                    hits += after.hits - before.hits;
                    misses += after.misses - before.misses;
                }
                types += r.structural.types.size();
                if (std::string bad = batch.consistency.check(i, r);
                    !bad.empty()) {
                    why = in.name + ": " + bad;
                    break;
                }
                if (op == 0)
                    app.add(r, in.truth);
                if (o.trace) {
                    SpanRecorder::Scope span(rec, "replay");
                    std::string bad =
                        replay_layers(image, r, batch.config, batch.store,
                                      batch.replay_tail, rec, counts);
                    if (!bad.empty())
                        why = in.name + ": traced " + bad;
                }
            }
        }
        if (!why.empty()) {
            report.fail(why);
        } else {
            op_ms.push_back(ms);
            types_per_op = types;
            ops.push_back(op);
            op_counts.push_back(counts);
            op_cache.emplace_back(hits, misses);
            op_unattributed.push_back(unattributed);
        }
        ++op;
    } while (ms_since(start) < o.seconds * 1000.0);

    if (o.trace) {
        // Counts are pure functions of the input: every op must agree.
        for (std::size_t i = 1; i < op_counts.size(); ++i) {
            if (!(op_counts[i] == op_counts[0]) || op_cache[i] != op_cache[0])
                report.fail("layer counts differ between ops on one input");
        }
        LayerExtras x;
        if (batch.store && !op_cache.empty()) {
            x.cache_hits = static_cast<double>(op_cache[0].first);
            x.cache_misses = static_cast<double>(op_cache[0].second);
            x.cache_bytes = static_cast<double>(batch.store->stats().bytes);
        }
        x.tail_samples_beyond =
            static_cast<double>(latency_tail(op_ms).beyond);
        x.rock_unattributed_ms = median(op_unattributed);
        add_layer_metrics(report, rec, ops,
                          op_counts.empty() ? LayerCounts{} : op_counts[0], x);
        if (!o.span_log.empty())
            rec.write_chrome_trace(o.span_log);
        return report;
    }
    add_setup(report, batch.setup, batch.setup_what);
    add_latency(report, op_ms, batch.op_what);
    const double p50 = median(op_ms);
    report.add("types_per_s",
               p50 > 0.0 ? static_cast<double>(types_per_op) / (p50 / 1000.0)
                         : 0.0,
               "1/s",
               std::to_string(types_per_op) + " types per op / median op");
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss");
    report.add("app_distance", app.mean(), "types",
               "worst co-optimal alternative, mean over " +
                   std::to_string(app.types()) + " types");
    return report;
}

core::RockConfig
serial_config(std::shared_ptr<cache::ArtifactCache> store = nullptr)
{
    core::RockConfig config;
    config.threads = 1;
    config.cache = std::move(store);
    return config;
}

Report
run_scale_cold(const RunOptions& o)
{
    Input input;
    Batch batch;
    batch.setup = timed_setups(o.sizes, [&] {
        input = skype_input(o.sizes.scale_classes, o.seed);
    });
    batch.setup_what = "generate + compile";
    batch.op_what = "cold reconstruct() calls";
    batch.inputs = {&input};
    batch.config = serial_config();
    return run_batch(o, batch);
}

Report
run_corpus_cold(const RunOptions& o)
{
    std::vector<Input> inputs;
    Batch batch;
    batch.setup = timed_setups(
        o.sizes, [&] { inputs = corpus_inputs(o.sizes, o.seed); });
    batch.setup_what = "generate + compile the corpus";
    batch.op_what =
        "passes over " + std::to_string(inputs.size()) + " images";
    for (const Input& in : inputs)
        batch.inputs.push_back(&in);
    batch.config = serial_config();
    return run_batch(o, batch);
}

Report
run_cache_warm(const RunOptions& o)
{
    Input input;
    Batch batch;
    std::uint64_t cold_digest = 0;
    batch.setup = timed_setups(o.sizes, [&] {
        input = skype_input(o.sizes.warm_classes, o.seed);
        batch.store = std::make_shared<cache::ArtifactCache>();
        obs::detail::reset_spans();
        cold_digest = result_digest(core::reconstruct(
            input.compiled.image, serial_config(batch.store)));
    });
    batch.setup_what = "generate + compile + cold fill of the cache";
    batch.op_what = "warm reconstruct() calls";
    batch.inputs = {&input};
    batch.config = serial_config(batch.store);
    // Warm results must equal set-up's cold one.
    batch.consistency.expect(0, cold_digest);
    batch.replay_tail = false;
    return run_batch(o, batch);
}

Report
run_serve_mixed(const RunOptions& o)
{
#if defined(__GLIBC__)
    // glibc raises its mmap threshold each time a thread frees a large
    // mmapped block, and from then on keeps such blocks in the heap.
    // The daemon's threads free them in an order that differs from run
    // to run, so peak RSS moved by up to 18 MB between runs (measured
    // with 2 workers). Holding the threshold at glibc's initial 128 KiB
    // makes peak RSS follow live memory.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    const Sizes& sz = o.sizes;
    Report report;
    ServeTraffic traffic;
    std::shared_ptr<cache::ArtifactCache> store;
    std::unique_ptr<serve::Server> server;
    const std::string socket =
        o.run_dir + "/rockperf-" + std::to_string(::getpid()) + ".sock";
    auto stop = [&] {
        if (server) {
            server->request_shutdown();
            server->wait();
            server.reset();
        }
    };
    const SetupTime setup = timed_setups(sz, [&] {
        stop();
        traffic = serve_traffic(sz, o.seconds, o.seed);
        serve::ServerOptions options;
        options.socket_path = socket;
        options.threads = kServeWorkers;
        store = std::make_shared<cache::ArtifactCache>();
        options.cache = store;
        server = std::make_unique<serve::Server>(options);
        server->start();
    });

    obs::Registry& reg = obs::Registry::global();
    auto counter = [&](const char* name) {
        return static_cast<double>(reg.counter(name).value());
    };
    const double batches0 = counter("serve.batches");
    const double submits0 = counter("serve.requests.submit");
    const double dedup0 = counter("serve.dedup.hits");
    // The span log grows with every request for as long as the daemon
    // lives, and reconstruct() copies all of it twice per call, so a
    // request would cost more the later it came in the run. Clearing
    // it before each send keeps the daemon's log to the requests in
    // flight, as the other workloads clear it before each
    // reconstruct(). Spans of a request still running are dropped;
    // responses do not depend on them.
    SpanRecorder rec;
    const double load_start_ms = rec.now_ms();
    const OpenLoopResult load = run_open_loop(
        socket, traffic.payloads, traffic.schedule, sz.serve_rate,
        kServeConnections, 60000, [] { obs::detail::reset_spans(); });
    const double workers = server->status().workers;
    stop();
    const double waves = counter("serve.batches") - batches0;
    const double submits = counter("serve.requests.submit") - submits0;
    const double dedup = counter("serve.dedup.hits") - dedup0;
    const cache::CacheStats served = store->stats();

    // The reference answers, computed without a cache after the timed
    // phase, and each pool image's hierarchy for app_distance (warm
    // against the daemon's store: bit-identical to cold, and cheap).
    std::vector<std::string> expected;
    std::vector<std::uint64_t> types(traffic.pool.size(), 0);
    AppDistance app;
    core::RockConfig cold;
    cold.threads = kServeWorkers;
    core::RockConfig warm = cold;
    warm.cache = store;
    for (std::size_t k = 0; k < traffic.pool.size(); ++k) {
        const Input& in = traffic.pool[k];
        expected.push_back(
            serve::submit_response_text(in.compiled.image, cold));
        const core::ReconstructionResult r =
            core::reconstruct(in.compiled.image, warm);
        types[k] = r.structural.types.size();
        app.add(r, in.truth);
    }

    std::vector<double> latency;
    std::vector<double> roundtrip;
    double served_types = 0.0;
    double last_ms = 0.0;
    const std::size_t n = traffic.schedule.size();
    report.attempted = n;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = "request " + std::to_string(i + 1);
        if (!load.answered[i]) {
            report.fail(id + ": no response");
            continue;
        }
        const serve::protocol::Response& response = load.responses[i];
        if (!response.ok()) {
            report.fail(id + ": " +
                        serve::protocol::code_name(response.code) + " " +
                        response.error);
            continue;
        }
        std::vector<std::uint8_t> payload = response.payload;
        if (o.corrupt_response)
            o.corrupt_response(i, payload);
        if (std::string(payload.begin(), payload.end()) !=
            expected[traffic.schedule[i]]) {
            report.fail(id + ": response differs from "
                             "submit_response_text() of its image");
            continue;
        }
        latency.push_back(load.received_ms[i] - load.due_ms[i]);
        roundtrip.push_back(load.received_ms[i] - load.sent_ms[i]);
        served_types += static_cast<double>(types[traffic.schedule[i]]);
        last_ms = std::max(last_ms, load.received_ms[i]);
    }
    if (load.late > 0) {
        std::fprintf(stderr,
                     "WARNING: the load generator fell behind: %zu of %zu "
                     "requests went out a whole gap late (max lag %.1f "
                     "ms); latencies count from the due time\n",
                     load.late, n, load.lag_ms_max);
    }

    if (!o.trace) {
        add_setup(report, setup,
                  "generate + compile the pool, start the daemon");
        add_latency(report, latency,
                    "requests, due time to response; generator max lag " +
                        fmt("%.2f", load.lag_ms_max) + " ms");
        report.add("types_per_s",
                   last_ms > 0.0 ? served_types / (last_ms / 1000.0) : 0.0,
                   "1/s", "types answered / first due to last response");
        report.add("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss");
        report.add("app_distance", app.mean(), "types",
                   "worst co-optimal alternative, mean over " +
                       std::to_string(app.types()) + " pool types");
        return report;
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (!load.answered[i])
            continue;
        const int op = static_cast<int>(i);
        const double end = load_start_ms + load.received_ms[i];
        const int parent = rec.record("serve.request", -1, op,
                                      load_start_ms + load.due_ms[i], end);
        rec.record("serve.roundtrip", parent, op,
                   load_start_ms + load.sent_ms[i], end);
    }

    // ThreadPool cost: the same images warm at kPoolDeltaThreads and
    // at threads=1.
    std::vector<double> at_workers;
    std::vector<double> at_one;
    for (const Input& in : traffic.pool) {
        core::RockConfig pooled = warm;
        pooled.threads = kPoolDeltaThreads;
        core::RockConfig one = warm;
        one.threads = 1;
        Clock::time_point t = Clock::now();
        serve::submit_response_text(in.compiled.image, pooled);
        at_workers.push_back(ms_since(t));
        t = Clock::now();
        serve::submit_response_text(in.compiled.image, one);
        at_one.push_back(ms_since(t));
    }

    // Layer replay over the pool, as one op after the requests.
    const int replay_op = static_cast<int>(n);
    rec.set_op(replay_op);
    LayerCounts counts;
    double unattributed = 0.0;
    {
        SpanRecorder::Scope op_span(rec, "op");
        const core::RockConfig serial = serial_config();
        for (const Input& in : traffic.pool) {
            ++report.attempted;
            obs::detail::reset_spans();
            core::ReconstructionResult r;
            {
                SpanRecorder::Scope span(rec, "rock.reconstruct");
                r = core::reconstruct(in.compiled.image, serial);
            }
            unattributed += unattributed_ms(r.timing);
            SpanRecorder::Scope span(rec, "replay");
            std::string bad = replay_layers(in.compiled.image, r, serial,
                                            nullptr, true, rec, counts);
            if (!bad.empty())
                report.fail(in.name + ": traced " + bad);
        }
    }

    LayerExtras x;
    x.cache_hits = static_cast<double>(served.hits);
    x.cache_misses = static_cast<double>(served.misses);
    x.cache_bytes = static_cast<double>(served.bytes);
    x.serve_roundtrip_ms_p50 = median(roundtrip);
    x.serve_waves = waves;
    x.serve_wave_size_mean = ratio(submits, waves);
    x.serve_dedup_ratio = ratio(dedup, submits);
    x.gen_lag_ms_max = load.lag_ms_max;
    x.gen_late_requests = static_cast<double>(load.late);
    x.pool_workers = workers;
    x.pool_thread_delta_ms = median(at_workers) - median(at_one);
    x.tail_samples_beyond = static_cast<double>(latency_tail(latency).beyond);
    x.rock_unattributed_ms = unattributed;
    add_layer_metrics(report, rec, {replay_op}, counts, x);
    if (!o.span_log.empty())
        rec.write_chrome_trace(o.span_log);
    return report;
}

} // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> kNames{
        "scale_cold", "corpus_cold", "cache_warm", "serve_mixed"};
    return kNames;
}

Report
run_workload(const RunOptions& options)
{
    if (options.workload == "scale_cold")
        return run_scale_cold(options);
    if (options.workload == "corpus_cold")
        return run_corpus_cold(options);
    if (options.workload == "cache_warm")
        return run_cache_warm(options);
    if (options.workload == "serve_mixed")
        return run_serve_mixed(options);
    throw std::invalid_argument("unknown workload: " + options.workload);
}

} // namespace perfbench
