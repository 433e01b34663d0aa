/**
 * @file
 * The obs layer: metrics registry, span tracing, JSON round-trip, and
 * the rockstat regression-diff core.
 *
 * The suite shares the process-global Registry, so every test that
 * reads totals resets it first; gtest runs tests in one thread, so no
 * cross-test interleaving can corrupt a snapshot.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "corpus/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rock/pipeline.h"
#include "support/parallel.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

// ---- metrics registry ------------------------------------------------

TEST(Metrics, CounterSumExactUnderParallelFor)
{
    obs::Registry::global().reset();
    obs::Counter& c =
        obs::Registry::global().counter("test.parallel_sum");
    support::ThreadPool pool(4);
    constexpr std::size_t kItems = 20000;
    pool.parallel_for(kItems, support::ChunkPlan{}, [&](std::size_t i) {
        c.add();
        if (i % 2 == 0)
            c.add(2);
    });
    EXPECT_EQ(c.value(), kItems + 2 * (kItems / 2));
}

TEST(Metrics, RegistryReturnsSameInstancePerName)
{
    obs::Counter& a = obs::Registry::global().counter("test.same");
    obs::Counter& b = obs::Registry::global().counter("test.same");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, CrossKindNameCollisionThrows)
{
    obs::Registry::global().counter("test.collision");
    EXPECT_THROW(obs::Registry::global().gauge("test.collision"),
                 std::runtime_error);
    EXPECT_THROW(obs::Registry::global().histogram("test.collision"),
                 std::runtime_error);
}

TEST(Metrics, DisabledRecordingIsDropped)
{
    obs::Registry::global().reset();
    obs::Counter& c = obs::Registry::global().counter("test.disabled");
    obs::set_metrics_enabled(false);
    c.add(5);
    obs::set_metrics_enabled(true);
    EXPECT_EQ(c.value(), 0u);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    obs::Registry::global().reset();
    obs::Histogram& h = obs::Registry::global().histogram(
        "test.hist", {1.0, 10.0, 100.0});
    // A value equal to a bound lands in that bound's bucket (first
    // bucket with value <= bound); above the last bound -> overflow.
    h.observe(0.5);   // bucket 0
    h.observe(1.0);   // bucket 0 (boundary inclusive)
    h.observe(1.001); // bucket 1
    h.observe(10.0);  // bucket 1
    h.observe(99.9);  // bucket 2
    h.observe(100.1); // overflow
    std::vector<std::uint64_t> expected = {2, 2, 1, 1};
    EXPECT_EQ(h.counts(), expected);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 99.9 + 100.1,
                1e-9);
}

TEST(Metrics, DefaultLatencyBucketsSeparateATwofoldChange)
{
    // Four buckets per octave from 0.1 ms to past 100 s: requests of
    // 1.2 s and of 2.4 s report different p50s, each within one
    // bucket (19%) of the truth.
    const std::vector<double> bounds =
        obs::Histogram::default_latency_bounds_ms();
    EXPECT_LE(bounds.front(), 0.1);
    EXPECT_GE(bounds.back(), 100000.0);
    auto p50_of = [&](double ms) {
        obs::Histogram h(bounds);
        for (int i = 0; i < 5; ++i)
            h.observe(ms);
        return obs::HistogramSnapshot{h.bounds(), h.counts(), h.count(),
                                      h.sum()}
            .quantile(0.5);
    };
    const double fast = p50_of(1200.0);
    const double slow = p50_of(2400.0);
    EXPECT_GE(fast, 1200.0);
    EXPECT_LT(fast, 1200.0 * 1.19);
    EXPECT_GE(slow, 2400.0);
    EXPECT_LT(slow, 2400.0 * 1.19);
    EXPECT_NE(fast, slow);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds)
{
    EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::runtime_error);
    EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::runtime_error);
}

TEST(Metrics, ResetZeroesInPlaceAndKeepsReferencesValid)
{
    obs::Counter& c = obs::Registry::global().counter("test.reset");
    c.add(7);
    obs::Registry::global().reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(1); // the same reference keeps recording
    EXPECT_EQ(c.value(), 1u);
}

// ---- span tracing ----------------------------------------------------

TEST(Trace, SpanNestingAndOrdering)
{
    obs::Registry::global().reset();
    {
        obs::Span outer("test.outer");
        {
            obs::Span inner("test.inner");
        }
        obs::Span sibling("test.sibling");
        sibling.end();
    }
    auto log = obs::span_log();
    ASSERT_EQ(log.size(), 3u);
    // Open order: parents precede children; ids match positions.
    EXPECT_EQ(log[0].name, "test.outer");
    EXPECT_EQ(log[0].id, 0);
    EXPECT_EQ(log[0].parent, -1);
    EXPECT_EQ(log[1].name, "test.inner");
    EXPECT_EQ(log[1].parent, 0);
    EXPECT_EQ(log[2].name, "test.sibling");
    EXPECT_EQ(log[2].parent, 0);
    // The parent's wall time covers both children.
    EXPECT_GE(log[0].wall_ms, log[1].wall_ms);
    EXPECT_GE(log[0].wall_ms, log[2].wall_ms);
}

TEST(Trace, EndIsIdempotent)
{
    obs::Registry::global().reset();
    obs::Span span("test.idempotent");
    span.end();
    const double first = obs::span_log().at(0).wall_ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    span.end();
    EXPECT_EQ(obs::span_log().at(0).wall_ms, first);
    EXPECT_EQ(obs::span_log().size(), 1u);
    EXPECT_EQ(span.subtree_wall_ms(),
              (std::map<std::string, double>{{"test.idempotent", first}}));
}

TEST(Trace, PoolTasksNestUnderTheSubmittingSpan)
{
    // Workers run the tasks, yet each task's span is a child of the
    // span open on the thread that submitted the graph, and a span a
    // task opens inside another nests under it.
    obs::Registry::global().reset();
    support::ThreadPool pool(4);
    {
        obs::Span call("test.call");
        std::vector<support::Task> tasks;
        for (int t = 0; t < 16; ++t) {
            tasks.push_back({[] {
                                 obs::Span task("test.task");
                                 obs::Span inner("test.inner");
                             },
                             {}});
        }
        pool.run_tasks(tasks);
    }
    const auto log = obs::span_log();
    ASSERT_EQ(log.size(), 33u);
    EXPECT_EQ(log[0].name, "test.call");
    EXPECT_EQ(log[0].parent, -1);
    for (const obs::SpanRecord& span : log) {
        if (span.name == "test.task") {
            EXPECT_EQ(span.parent, 0);
        } else if (span.name == "test.inner") {
            EXPECT_EQ(log.at(static_cast<std::size_t>(span.parent)).name,
                      "test.task");
        }
    }
    // Once the call's span closes, the caller's next span is a root.
    obs::Span after("test.after");
    after.end();
    EXPECT_EQ(obs::span_log().back().parent, -1);
}

TEST(Trace, InstalledTraceKeepsSpansOutOfTheProcessTrace)
{
    obs::Registry::global().reset();
    auto trace = std::make_shared<obs::Trace>();
    support::ThreadPool pool(2);
    {
        obs::ContextScope scope(obs::TraceContext{trace, -1});
        obs::Span request("test.request");
        pool.parallel_for(8, support::ChunkPlan{},
                          [](std::size_t) { obs::Span item("test.item"); });
    }
    EXPECT_TRUE(obs::span_log().empty());
    const auto spans = trace->spans();
    ASSERT_EQ(spans.size(), 9u);
    EXPECT_EQ(spans[0].parent, -1);
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].parent, 0) << i;
    // The scope restored the thread's context: back to the process
    // trace.
    {
        obs::Span outside("test.outside");
    }
    EXPECT_EQ(obs::span_log().size(), 1u);
}

TEST(Trace, ResetStartsAFreshProcessTraceWhileOpenSpansFinishInTheirs)
{
    obs::Registry::global().reset();
    const std::shared_ptr<obs::Trace> before = obs::process_trace();
    {
        obs::Span open("test.open");
        obs::detail::reset_spans();
        // Still nested in the span opened before the reset.
        obs::Span child("test.child");
    }
    EXPECT_NE(obs::process_trace(), before);
    EXPECT_TRUE(obs::span_log().empty());
    const auto old = before->spans();
    ASSERT_EQ(old.size(), 2u);
    EXPECT_GT(old[0].wall_ms, 0.0);
    EXPECT_EQ(old[1].parent, 0);
    {
        obs::Span fresh("test.fresh");
    }
    ASSERT_EQ(obs::span_log().size(), 1u);
    EXPECT_EQ(obs::span_log()[0].parent, -1);
}

TEST(Trace, DisabledSpansRecordNothing)
{
    obs::Registry::global().reset();
    obs::set_metrics_enabled(false);
    {
        obs::Span span("test.invisible");
    }
    obs::set_metrics_enabled(true);
    EXPECT_TRUE(obs::span_log().empty());
}

// ---- JSON + report ---------------------------------------------------

TEST(Report, JsonRoundTripIsExact)
{
    obs::Registry::global().reset();
    obs::Registry::global().counter("test.rt_counter").add(42);
    obs::Registry::global().gauge("test.rt_gauge").set(2.5);
    obs::Registry::global()
        .histogram("test.rt_hist", {1.0, 5.0})
        .observe(3.25);
    {
        obs::Span span("test.rt_span");
    }
    obs::MetricsReport report = obs::MetricsReport::capture();
    obs::MetricsReport parsed =
        obs::MetricsReport::from_json(report.to_json());
    EXPECT_EQ(parsed, report);
    // Canonical form: serializing twice is byte-identical.
    EXPECT_EQ(parsed.to_json(), report.to_json());
}

TEST(Report, CaptureRecordsProcessMemory)
{
    // Touch a few MB so the resident set is clearly non-zero.
    std::vector<char> ballast(8 << 20, 1);
    obs::MetricsReport report = obs::MetricsReport::capture();
    ASSERT_TRUE(report.gauges.count("process.peak_rss_mb"));
    ASSERT_TRUE(report.gauges.count("process.rss_mb"));
    const double peak = report.gauges.at("process.peak_rss_mb");
    const double now = report.gauges.at("process.rss_mb");
    EXPECT_GT(now, 0.0);
    EXPECT_GT(peak, 0.0);
    EXPECT_GE(peak, now);
    EXPECT_GT(ballast[ballast.size() - 1], 0);
    // Context switches sit next to memory; sleeping blocks this
    // thread, a voluntary switch.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    report = obs::MetricsReport::capture();
    ASSERT_TRUE(report.gauges.count("process.voluntary_ctx_switches"));
    ASSERT_TRUE(report.gauges.count("process.involuntary_ctx_switches"));
    EXPECT_GT(report.gauges.at("process.voluntary_ctx_switches"), 0.0);
}

TEST(Report, FromJsonRejectsWrongSchemaAndGarbage)
{
    EXPECT_THROW(obs::MetricsReport::from_json("{}"),
                 std::runtime_error);
    EXPECT_THROW(obs::MetricsReport::from_json("not json"),
                 std::runtime_error);
    EXPECT_THROW(obs::MetricsReport::from_json(
                     "{\"schema\":\"rock-metrics-v0\"}"),
                 std::runtime_error);
}

TEST(Json, ParserHandlesEscapesAndNumbers)
{
    obs::Json v = obs::Json::parse(
        "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":-1.5e2,\"t\":true,"
        "\"z\":null,\"a\":[1,2]}");
    EXPECT_EQ(v.find("s")->string, "a\"b\\c\n");
    EXPECT_EQ(v.find("n")->number, -150.0);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_EQ(v.find("z")->kind, obs::Json::Kind::Null);
    EXPECT_EQ(v.find("a")->array.size(), 2u);
    EXPECT_THROW(obs::Json::parse("{\"unterminated\":"),
                 std::runtime_error);
}

// ---- regression diffing (rockstat core) ------------------------------

obs::MetricsReport
small_report()
{
    obs::MetricsReport r;
    r.counters = {{"alpha", 100}, {"beta", 5}};
    obs::SpanRecord span;
    span.name = "stage";
    span.wall_ms = 100.0;
    r.spans.push_back(span);
    return r;
}

TEST(Diff, SelfDiffIsClean)
{
    obs::MetricsReport r = small_report();
    EXPECT_TRUE(obs::diff_reports(r, r).empty());
}

TEST(Diff, DoubledCounterIsARegression)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters["alpha"] = 200;
    auto regs = obs::diff_reports(base, cur);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "counter:alpha");
    EXPECT_EQ(regs[0].baseline, 100.0);
    EXPECT_EQ(regs[0].current, 200.0);
}

TEST(Diff, CounterToleranceAllowsBoundedDrift)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters["alpha"] = 109;
    obs::DiffOptions options;
    options.counter_rel_tol = 0.10;
    EXPECT_TRUE(obs::diff_reports(base, cur, options).empty());
    cur.counters["alpha"] = 111;
    EXPECT_EQ(obs::diff_reports(base, cur, options).size(), 1u);
}

TEST(Diff, MissingCounterOnEitherSideIsReported)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    cur.counters.erase("beta");
    cur.counters["gamma"] = 1;
    EXPECT_EQ(obs::diff_reports(base, cur).size(), 2u);
}

TEST(Diff, SpanGateIsOneSidedWithSlack)
{
    obs::MetricsReport base = small_report();
    obs::MetricsReport cur = small_report();
    // Default gate: 25% relative + 5ms slack over a 100ms baseline.
    cur.spans[0].wall_ms = 129.0;
    EXPECT_TRUE(obs::diff_reports(base, cur).empty());
    cur.spans[0].wall_ms = 131.0;
    auto regs = obs::diff_reports(base, cur);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "span:stage");
    // Getting faster never fails.
    cur.spans[0].wall_ms = 1.0;
    EXPECT_TRUE(obs::diff_reports(base, cur).empty());
    // counters_only skips the timing gate entirely.
    cur.spans[0].wall_ms = 10000.0;
    obs::DiffOptions counters_only;
    counters_only.counters_only = true;
    EXPECT_TRUE(obs::diff_reports(base, cur, counters_only).empty());
}

TEST(Diff, BenchLinesPairByIdentityAndGateTimings)
{
    const std::string base =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":true}\n";
    EXPECT_TRUE(obs::diff_bench_lines(base, base).empty());

    // >25%+5ms growth on one paired line.
    const std::string slow =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":140.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":true}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, slow).size(), 1u);

    // A flipped boolean (determinism check!) always fails.
    const std::string broken =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n"
        "{\"bench\":\"x\",\"classes\":40,\"threads\":2,"
        "\"total_ms\":60.0,\"identical_to_serial\":false}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, broken).size(), 1u);

    // A baseline line with no current partner is reported.
    const std::string missing =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"identical_to_serial\":true}\n";
    EXPECT_EQ(obs::diff_bench_lines(base, missing).size(), 1u);
}

TEST(Diff, BenchLinesGateMemoryWithTheTimingTolerance)
{
    const std::string base =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"peak_rss_mb\":80.0}\n";
    // Run-to-run RSS noise is not an exact-match drift ...
    const std::string noisy =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"peak_rss_mb\":84.5}\n";
    EXPECT_TRUE(obs::diff_bench_lines(base, noisy).empty());
    // ... shrinking never fails ...
    const std::string smaller =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"peak_rss_mb\":20.0}\n";
    EXPECT_TRUE(obs::diff_bench_lines(base, smaller).empty());
    // ... but growth past 25% + slack does.
    const std::string bloated =
        "{\"bench\":\"x\",\"classes\":40,\"threads\":1,"
        "\"total_ms\":100.0,\"peak_rss_mb\":600.0}\n";
    const auto regs = obs::diff_bench_lines(base, bloated);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "bench[bench=x,classes=40,threads=1,]:"
                              "peak_rss_mb");
    EXPECT_EQ(regs[0].detail, "memory regressed");
    // Memory is machine-dependent: counters-only diffs skip it.
    obs::DiffOptions counters_only;
    counters_only.counters_only = true;
    EXPECT_TRUE(obs::diff_bench_lines(base, bloated, counters_only).empty());
}

TEST(Diff, PeakRssBoundFailsLargeAndUnmeasuredLines)
{
    const std::string jsonl =
        "{\"bench\":\"x\",\"threads\":1,\"peak_rss_mb\":389.5}\n"
        "{\"bench\":\"x\",\"threads\":4,\"peak_rss_mb\":1100.0}\n"
        "{\"bench\":\"x\",\"threads\":8}\n";
    const auto regs = obs::peak_rss_violations(jsonl, 1024.0);
    ASSERT_EQ(regs.size(), 2u);
    EXPECT_EQ(regs[0].metric, "line 2:peak_rss_mb");
    EXPECT_DOUBLE_EQ(regs[0].current, 1100.0);
    EXPECT_EQ(regs[1].metric, "line 3:peak_rss_mb");
    EXPECT_EQ(regs[1].detail, "no peak_rss_mb field");
    EXPECT_TRUE(obs::peak_rss_violations(jsonl.substr(0, jsonl.find('\n') + 1),
                                         1024.0)
                    .empty());
}

// ---- end-to-end: the pipeline under observation ----------------------

core::ReconstructionResult
run_generated(int threads, bool typeinf = true)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = 20;
    spec.num_trees = 2;
    spec.max_depth = 3;
    spec.scenarios_per_class = 2;
    spec.seed = 11;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    core::RockConfig config;
    config.threads = threads;
    config.typeinf = typeinf;
    return core::reconstruct(compiled.image, config);
}

TEST(EndToEnd, ReconstructEmitsMetricsAcrossEveryStage)
{
    obs::Registry::global().reset();
    run_generated(2);
    // On this corpus the solved subtype facts prune every non-forced
    // candidate edge, so the DKL stage legitimately weighs nothing;
    // the baseline configuration keeps the divergence counters
    // exercised (counters accumulate across both runs).
    run_generated(2, /*typeinf=*/false);
    obs::MetricsReport report = obs::MetricsReport::capture();

    // The acceptance bar: >= 15 distinct named metrics spanning all
    // stages of the pipeline.
    EXPECT_GE(report.counters.size(), 15u);
    for (const char* name :
         {"pipeline.runs", "pipeline.types", "verify.functions",
          "analysis.functions_symexec", "analysis.tracelets",
          "structural.feasible_parent_edges", "typeinf.constraints",
          "typeinf.object_vars", "typeinf.subtype_edges",
          "typeinf.edges_pruned", "slm.models_trained",
          "slm.trie_nodes", "slm.escapes", "divergence.pairs",
          "arborescence.families_solved", "threadpool.items"}) {
        EXPECT_TRUE(report.counters.count(name)) << name;
        if (std::string(name) != "verify.diagnostics")
            EXPECT_GT(report.counters[name], 0u) << name;
    }
    // One span per pipeline stage, rooted at pipeline.reconstruct.
    auto totals = report.span_totals();
    for (const char* span :
         {"pipeline.reconstruct", "pipeline.verify",
          "pipeline.analyze", "pipeline.structural",
          "pipeline.typeinf", "pipeline.train", "pipeline.distances",
          "pipeline.arborescence"}) {
        EXPECT_TRUE(totals.count(span)) << span;
    }
}

TEST(EndToEnd, StageTimingMatchesSpanTree)
{
    // StageTiming is deprecated-but-kept: its fields must be copied
    // verbatim from the per-stage spans (one reconstruct per reset ->
    // span totals equal the copied fields exactly).
    obs::Registry::global().reset();
    core::ReconstructionResult result = run_generated(1);
    auto totals = obs::MetricsReport::capture().span_totals();
    EXPECT_EQ(result.timing.verify_ms, totals.at("pipeline.verify"));
    EXPECT_EQ(result.timing.analyze_ms, totals.at("pipeline.analyze"));
    EXPECT_EQ(result.timing.structural_ms,
              totals.at("pipeline.structural"));
    EXPECT_EQ(result.timing.typeinf_ms, totals.at("pipeline.typeinf"));
    EXPECT_EQ(result.timing.train_ms, totals.at("pipeline.train"));
    EXPECT_EQ(result.timing.distances_ms,
              totals.at("pipeline.distances"));
    EXPECT_EQ(result.timing.arborescence_ms,
              totals.at("pipeline.arborescence"));
    EXPECT_EQ(result.timing.total_ms,
              totals.at("pipeline.reconstruct"));
}

TEST(EndToEnd, StageTimingOnlyCountsItsOwnCall)
{
    // Each call's StageTiming sums its own spans, never another
    // call's: with a second thread reconstructing a bigger image at the
    // same time, no stage may absorb the other call's work. At
    // threads=1 every stage span lies inside the call's total span and
    // no two overlap, so the eight stage fields stay within total_ms.
    obs::Registry::global().reset();
    auto compile = [](int classes, std::uint64_t seed) {
        corpus::GeneratorSpec spec;
        spec.num_classes = classes;
        spec.num_trees = std::max(2, classes / 40);
        spec.max_depth = 6;
        spec.seed = seed;
        return toyc::compile(corpus::generate_program(spec));
    };
    const toyc::CompileResult big = compile(400, 3);
    const toyc::CompileResult small = compile(40, 5);
    auto stage_sum = [](const core::StageTiming& t) {
        return t.cfg_ms + t.verify_ms + t.analyze_ms + t.structural_ms +
               t.typeinf_ms + t.train_ms + t.distances_ms +
               t.arborescence_ms;
    };

    std::vector<core::StageTiming> big_timings;
    std::exception_ptr big_error;
    {
        // Leaving the scope (normally or by exception) stops and joins.
        std::jthread background([&](std::stop_token stop) {
            try {
                while (!stop.stop_requested())
                    big_timings.push_back(core::reconstruct(big.image).timing);
            } catch (...) {
                big_error = std::current_exception();
            }
        });
        for (int call = 0; call < 60; ++call) {
            const core::StageTiming t =
                core::reconstruct(small.image).timing;
            EXPECT_LE(stage_sum(t), t.total_ms) << "small call " << call;
        }
    }
    if (big_error)
        std::rethrow_exception(big_error);
    for (const core::StageTiming& t : big_timings)
        EXPECT_LE(stage_sum(t), t.total_ms) << "big call";
}

toyc::CompileResult
compile_generated(int classes, std::uint64_t seed)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = std::max(2, classes / 40);
    spec.max_depth = 6;
    spec.seed = seed;
    return toyc::compile(corpus::generate_program(spec));
}

using SpanPairs = std::multiset<std::pair<std::string, std::string>>;

/** Ids of span @p root and every span below it in @p log. */
std::vector<int>
subtree_ids(const std::vector<obs::SpanRecord>& log, int root)
{
    std::vector<char> inside(log.size(), 0);
    std::vector<int> ids;
    for (std::size_t i = static_cast<std::size_t>(root); i < log.size();
         ++i) {
        const int parent = log[i].parent;
        if (static_cast<int>(i) == root ||
            (parent >= root && inside[static_cast<std::size_t>(parent)])) {
            inside[i] = 1;
            ids.push_back(static_cast<int>(i));
        }
    }
    return ids;
}

/** (name, parent name) of every span under @p root, the root's own
 *  parent name reading "". */
SpanPairs
subtree_pairs(const std::vector<obs::SpanRecord>& log, int root)
{
    SpanPairs pairs;
    for (int id : subtree_ids(log, root)) {
        const obs::SpanRecord& span = log[static_cast<std::size_t>(id)];
        pairs.emplace(span.name,
                      id == root ? ""
                                 : log[static_cast<std::size_t>(span.parent)]
                                       .name);
    }
    return pairs;
}

TEST(EndToEnd, WorkerSpansNestUnderTheirCall)
{
    // On a 4-thread pool the per-family tasks run on workers, yet
    // their spans hang below the call's pipeline.reconstruct span in
    // exactly the tree a 1-thread pool records.
    const toyc::CompileResult compiled = compile_generated(120, 3);
    core::RockConfig config;
    config.typeinf = false; // keeps every family's distance tasks busy
    auto tree = [&](int threads) {
        obs::Registry::global().reset();
        support::ThreadPool pool(threads);
        core::reconstruct(compiled.image, config, pool);
        const auto log = obs::span_log();
        for (const obs::SpanRecord& span : log) {
            if (span.parent < 0) {
                EXPECT_EQ(span.id, 0) << span.name << " at " << threads;
            }
        }
        return subtree_pairs(log, 0);
    };
    const SpanPairs serial = tree(1);
    EXPECT_EQ(serial, tree(4));
    EXPECT_EQ(serial.count({"pipeline.reconstruct", ""}), 1u);
    EXPECT_GT(serial.count({"pipeline.train", "pipeline.reconstruct"}), 1u);
    // The family solve's steps nest under its arborescence span.
    for (const char* step :
         {"graph.ambiguity", "graph.enumerate", "graph.majority"}) {
        EXPECT_GT(serial.count({step, "pipeline.arborescence"}), 0u)
            << step;
    }
}

TEST(EndToEnd, ConcurrentCallsOnASharedPoolKeepTheirOwnSubtrees)
{
    // Two threads reconstruct different images on one 4-thread pool at
    // once, into one trace. Every span belongs to the call that made
    // it: each call's subtree has the shape of the same call made
    // alone, lies inside the call's own span in time, and is exactly
    // what its StageTiming sums.
    const toyc::CompileResult big = compile_generated(400, 3);
    const toyc::CompileResult small = compile_generated(40, 5);
    support::ThreadPool pool(4);
    const core::RockConfig config;
    auto alone = [&](const toyc::CompileResult& compiled) {
        obs::Registry::global().reset();
        core::reconstruct(compiled.image, config, pool);
        return subtree_pairs(obs::span_log(), 0);
    };
    const SpanPairs big_shape = alone(big);
    const SpanPairs small_shape = alone(small);

    struct Call {
        const SpanPairs* shape = nullptr;
        std::uint64_t thread = 0;
        core::StageTiming timing;
    };
    constexpr int kCallsPerThread = 3;
    obs::Registry::global().reset();
    std::vector<Call> big_calls;
    std::vector<Call> small_calls;
    auto run = [&](const toyc::CompileResult& compiled,
                   const SpanPairs& shape, std::vector<Call>& calls) {
        const std::uint64_t thread =
            std::hash<std::thread::id>{}(std::this_thread::get_id());
        for (int i = 0; i < kCallsPerThread; ++i)
            calls.push_back(
                {&shape, thread,
                 core::reconstruct(compiled.image, config, pool).timing});
    };
    {
        std::jthread a([&] { run(big, big_shape, big_calls); });
        std::jthread b([&] { run(small, small_shape, small_calls); });
    }

    const auto log = obs::span_log();
    // Roots are exactly the calls; on each thread they open in order.
    std::map<std::uint64_t, std::vector<int>> roots;
    for (const obs::SpanRecord& span : log) {
        if (span.parent >= 0)
            continue;
        EXPECT_EQ(span.name, "pipeline.reconstruct");
        roots[span.thread].push_back(span.id);
    }
    ASSERT_EQ(roots.size(), 2u);
    for (const std::vector<Call>* calls : {&big_calls, &small_calls}) {
        ASSERT_EQ(calls->size(), static_cast<std::size_t>(kCallsPerThread));
        const std::vector<int>& ids = roots[calls->front().thread];
        ASSERT_EQ(ids.size(), calls->size());
        for (std::size_t c = 0; c < calls->size(); ++c) {
            const Call& call = (*calls)[c];
            const obs::SpanRecord& root =
                log[static_cast<std::size_t>(ids[c])];
            SCOPED_TRACE(testing::Message()
                         << (calls == &big_calls ? "big" : "small")
                         << " call " << c);
            EXPECT_EQ(subtree_pairs(log, root.id), *call.shape);
            std::map<std::string, double> sums;
            for (int id : subtree_ids(log, root.id)) {
                const obs::SpanRecord& span =
                    log[static_cast<std::size_t>(id)];
                sums[span.name] += span.wall_ms;
                EXPECT_GE(span.start_ms, root.start_ms) << span.name;
                EXPECT_LE(span.start_ms + span.wall_ms,
                          root.start_ms + root.wall_ms + 1e-6)
                    << span.name;
            }
            const core::StageTiming& t = call.timing;
            EXPECT_EQ(t.total_ms, root.wall_ms);
            EXPECT_EQ(t.cfg_ms, sums["pipeline.cfg"]);
            EXPECT_EQ(t.verify_ms, sums["pipeline.verify"]);
            EXPECT_EQ(t.analyze_ms, sums["pipeline.analyze"]);
            EXPECT_EQ(t.structural_ms, sums["pipeline.structural"]);
            EXPECT_EQ(t.typeinf_ms, sums["pipeline.typeinf"]);
            EXPECT_EQ(t.train_ms, sums["pipeline.train"]);
            EXPECT_EQ(t.distances_ms, sums["pipeline.distances"]);
            EXPECT_EQ(t.arborescence_ms, sums["pipeline.arborescence"]);
            // The serial front end runs on the calling thread alone.
            EXPECT_LE(t.cfg_ms + t.verify_ms + t.analyze_ms +
                          t.structural_ms + t.typeinf_ms,
                      t.total_ms);
        }
    }
}

} // namespace
