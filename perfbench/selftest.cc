/**
 * @file
 * Self-test of the benchmark at tiny sizes: metric names and units
 * match BENCHMARK.json on every workload, the latency tail needs ten
 * samples beyond it, a corrupt serve response counts as a failed op,
 * traced layer replays equal reconstruct() (and notice when they do
 * not), counts repeat exactly (bar serve_mixed's arrival-timing
 * counters), and a second seed changes the inputs but not the metric
 * names.
 *
 * Run: python3 perfbench/run.py --selftest
 */
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bir/serialize.h"
#include "inputs.h"
#include "layers.h"
#include "report.h"
#include "rock/pipeline.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Names = std::vector<std::pair<std::string, std::string>>;

/** {name, unit} pairs of one BENCHMARK.json section. */
Names
declared(const std::string& section)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    EXPECT_TRUE(in.good()) << "cannot read " << PERFBENCH_BENCHMARK_JSON;
    std::stringstream text;
    text << in.rdbuf();
    std::string json = text.str();
    const std::size_t from = json.find("\"" + section + "\"");
    EXPECT_NE(from, std::string::npos) << section;
    json = json.substr(from);
    const std::size_t to = json.find(']');
    json = json.substr(0, to);
    Names out;
    const std::regex metric(
        R"re(\{\s*"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
    for (std::sregex_iterator it(json.begin(), json.end(), metric), end;
         it != end; ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

RunOptions
tiny(const std::string& workload, bool trace = false)
{
    RunOptions o;
    o.workload = workload;
    o.seed = 7;
    o.trace = trace;
    o.seconds = workload == "serve_mixed" ? 1.0 : 0.01;
    o.sizes.scale_classes = 60;
    o.sizes.warm_classes = 40;
    o.sizes.corpus_table2 = false;
    o.sizes.corpus_fuzz = 6;
    o.sizes.serve_classes = 20;
    o.sizes.serve_rate = 20.0;
    o.sizes.setup_min_repeats = 1;
    o.sizes.setup_min_seconds = 0.0;
    o.run_dir = ".";
    return o;
}

/** Every declared metric is reported once, with its unit, both in
 *  the human-readable lines and in the final JSON line. */
void
expect_metrics(const Report& report, const Names& want)
{
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(report.metrics.size(), want.size());
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    print_report(report, out, out);
    std::rewind(out);
    std::string printed;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), out))
        printed += buf;
    std::fclose(out);
    const std::string json = json_line(report);
    EXPECT_EQ(printed.substr(printed.rfind('\n', printed.size() - 2) + 1),
              json + "\n")
        << "the JSON result must be the last line";
    for (const auto& [name, unit] : want) {
        const Metric* m = report.find(name);
        ASSERT_NE(m, nullptr) << name << " missing";
        EXPECT_EQ(m->unit, unit) << name;
        EXPECT_NE(printed.find(name + " = " + format_number(m->value) +
                               " " + unit),
                  std::string::npos)
            << name;
        EXPECT_NE(json.find("\"" + name + "\": {\"value\": " +
                            format_number(m->value) + ", \"unit\": \"" +
                            unit + "\"}"),
                  std::string::npos)
            << name;
    }
}

TEST(Perfbench, EveryMetricPrintsWithItsUnitOnEveryWorkload)
{
    const Names end_to_end = declared("end_to_end");
    const Names per_layer = declared("per_layer");
    for (const std::string& w : workload_names()) {
        SCOPED_TRACE(w);
        const Report plain = run_workload(tiny(w));
        EXPECT_TRUE(plain.correct());
        EXPECT_GE(plain.attempted, 1u);
        expect_metrics(plain, end_to_end);
        // Never 0, bar app_distance: tiny images can come out exact.
        for (const Metric& m : plain.metrics)
            EXPECT_TRUE(m.value > 0.0 ||
                        (m.name == "app_distance" && m.value == 0.0))
                << m.name;
        const Report traced = run_workload(tiny(w, true));
        EXPECT_TRUE(traced.correct());
        expect_metrics(traced, per_layer);
    }
}

TEST(Perfbench, TailNeedsTenSamplesBeyondIt)
{
    auto samples = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(static_cast<double>(i + 1));
        return v;
    };
    EXPECT_FALSE(latency_tail(samples(0)).found);
    EXPECT_FALSE(latency_tail(samples(19)).found);
    Tail t = latency_tail(samples(20));
    EXPECT_TRUE(t.found);
    EXPECT_EQ(t.pct, 50.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.value, 10.0);
    t = latency_tail(samples(160));
    EXPECT_EQ(t.pct, 93.75);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.value, 150.0);
    t = latency_tail(samples(1000));
    EXPECT_EQ(t.pct, 99.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.value, 990.0);

    // A run with too few ops prints no tail percentile: the median
    // stands in, labelled as such.
    const Report r = run_workload(tiny("scale_cold"));
    const Metric* tail = r.find("latency_ms_tail");
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->value, r.find("latency_ms_p50")->value);
    EXPECT_NE(tail->note.find("no tail"), std::string::npos);
}

TEST(Perfbench, CorruptServeResponseIsAFailedOp)
{
    RunOptions o = tiny("serve_mixed");
    o.corrupt_response = [](std::size_t request,
                            std::vector<std::uint8_t>& payload) {
        if (request == 2 && !payload.empty())
            payload[0] ^= 0x20;
    };
    const Report r = run_workload(o);
    EXPECT_EQ(r.attempted, 20u);
    EXPECT_EQ(r.failed, 1u);
    EXPECT_FALSE(r.correct());
    ASSERT_FALSE(r.failures.empty());
    EXPECT_NE(r.failures[0].find("request 3"), std::string::npos);
}

TEST(Perfbench, TracedLayersEqualReconstruct)
{
    const Input in = skype_input(60, 3);
    rock::core::RockConfig config;
    const rock::core::ReconstructionResult ref =
        rock::core::reconstruct(in.compiled.image, config);
    SpanRecorder rec;
    LayerCounts counts;
    EXPECT_EQ(replay_layers(in.compiled.image, ref, config, nullptr, true,
                            rec, counts),
              "");
    EXPECT_EQ(counts.cfg_functions, in.compiled.image.functions.size());
    for (const char* layer : {"cfg.build", "cfg.verify", "analysis",
                              "structural", "typeinf", "slm.train",
                              "divergence", "graph"}) {
        bool seen = false;
        for (const auto& span : rec.spans())
            seen = seen || span.name == layer;
        EXPECT_TRUE(seen) << layer;
    }

    // The equality check has teeth: a perturbed weight is reported.
    rock::core::ReconstructionResult bad =
        rock::core::reconstruct(in.compiled.image, config);
    ASSERT_FALSE(bad.distances.empty());
    bad.distances.begin()->second += 1.0;
    LayerCounts ignored;
    EXPECT_NE(replay_layers(in.compiled.image, bad, config, nullptr, true,
                            rec, ignored)
                  .find("divergence"),
              std::string::npos);
}

/** serve_mixed counters set by when requests arrive, not by the
 *  images: which requests share a wave, and so which hit the cache. */
bool
depends_on_arrival_timing(const std::string& name)
{
    for (const char* prefix : {"serve.", "cache.", "gen."}) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

TEST(Perfbench, CountsRepeatAcrossTracedRuns)
{
    for (const std::string& w : workload_names()) {
        SCOPED_TRACE(w);
        const Report a = run_workload(tiny(w, true));
        const Report b = run_workload(tiny(w, true));
        ASSERT_EQ(a.metrics.size(), b.metrics.size());
        std::size_t counts = 0;
        for (std::size_t i = 0; i < a.metrics.size(); ++i) {
            const Metric& m = a.metrics[i];
            if (m.unit != "count" && m.unit != "bytes")
                continue;
            if (w == "serve_mixed" && depends_on_arrival_timing(m.name))
                continue;
            EXPECT_EQ(m.value, b.metrics[i].value) << m.name;
            ++counts;
        }
        EXPECT_GT(counts, 10u);
    }
}

TEST(Perfbench, SecondSeedChangesInputsNotMetricNames)
{
    const Input a = skype_input(60, 1);
    const Input b = skype_input(60, 2);
    EXPECT_NE(rock::bir::save_image(a.compiled.image),
              rock::bir::save_image(b.compiled.image));
    EXPECT_EQ(a.truth.types.size(), b.truth.types.size());

    RunOptions o = tiny("corpus_cold");
    const Report first = run_workload(o);
    o.seed = 8;
    const Report second = run_workload(o);
    ASSERT_EQ(first.metrics.size(), second.metrics.size());
    for (std::size_t i = 0; i < first.metrics.size(); ++i)
        EXPECT_EQ(first.metrics[i].name, second.metrics[i].name);
}

} // namespace
