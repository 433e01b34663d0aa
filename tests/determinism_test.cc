/**
 * @file
 * Determinism of the parallel reconstruction pipeline.
 *
 * The contract (RockConfig::threads): any thread count must produce a
 * ReconstructionResult that is bit-identical to the serial path, as
 * core::first_difference() defines it -- hierarchies, co-optimal
 * alternatives in order, distances down to the last double bit, every
 * front-end fact and every trained model. Under `cmake -DROCK_SANITIZE=thread`
 * this suite also runs TSan-instrumented as ctest entry
 * `determinism_tsan`, doubling as a data-race check.
 */
#include <gtest/gtest.h>

#include <thread>

#include "corpus/benchmarks.h"
#include "corpus/examples.h"
#include "corpus/generator.h"
#include "obs/metrics.h"
#include "rock/pipeline.h"
#include "support/parallel.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using namespace rock::core;

ReconstructionResult
run_with(const bir::BinaryImage& image, int threads)
{
    RockConfig config;
    config.threads = threads;
    return reconstruct(image, config);
}

TEST(Determinism, CorpusBenchmarksSerialVsFourThreads)
{
    for (const char* name : {"echoparams", "tinyserver", "Smoothing"}) {
        SCOPED_TRACE(name);
        corpus::CorpusProgram prog =
            corpus::benchmark_by_name(name).program;
        toyc::CompileResult compiled =
            toyc::compile(prog.program, prog.options);
        EXPECT_EQ(first_difference(run_with(compiled.image, 1),
                                   run_with(compiled.image, 4)),
                  "");
    }
}

TEST(Determinism, StreamsExampleEveryThreadCount)
{
    corpus::CorpusProgram example = corpus::streams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    ReconstructionResult serial = run_with(compiled.image, 1);
    for (int threads : {2, 3, 4, 8}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(
            first_difference(serial, run_with(compiled.image, threads)),
            "");
    }
}

TEST(Determinism, GeneratedCorpusWithNoiseAndMi)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = 40;
    spec.num_trees = 3;
    spec.max_depth = 4;
    spec.scenarios_per_class = 2;
    spec.fold_noise_pairs = 2;
    spec.mi_prob = 0.1;
    spec.seed = 7;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    ReconstructionResult serial = run_with(compiled.image, 1);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(
            first_difference(serial, run_with(compiled.image, threads)),
            "");
    }
}

TEST(Determinism, HardwareConcurrencyKnob)
{
    // threads=0 resolves to "all cores" and must also be identical.
    corpus::CorpusProgram example = corpus::echoparams_program();
    toyc::CompileResult compiled =
        toyc::compile(example.program, example.options);
    EXPECT_EQ(first_difference(run_with(compiled.image, 1),
                               run_with(compiled.image, 0)),
              "");
}

TEST(Determinism, OversubscribedThreadCounts)
{
    // Way more workers than work items: a 5-class program has far
    // fewer functions/types than 33 threads, so most workers claim
    // no chunk. The merge must not depend on which ones did.
    corpus::GeneratorSpec spec;
    spec.num_classes = 5;
    spec.num_trees = 1;
    spec.max_depth = 2;
    spec.seed = 21;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    ReconstructionResult serial = run_with(compiled.image, 1);
    for (int threads : {5, 16, 33}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(
            first_difference(serial, run_with(compiled.image, threads)),
            "");
    }
}

TEST(Determinism, SerialMatchesTwiceHardwareConcurrency)
{
    // Oversubscription relative to the machine itself (2x the core
    // count) must still be bit-identical to the serial path.
    unsigned hw = std::thread::hardware_concurrency();
    int threads = static_cast<int>(hw == 0 ? 8 : 2 * hw);
    corpus::GeneratorSpec spec;
    spec.num_classes = 24;
    spec.num_trees = 2;
    spec.mi_prob = 0.15;
    spec.fold_noise_pairs = 1;
    spec.seed = 22;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    EXPECT_EQ(first_difference(run_with(compiled.image, 1),
                               run_with(compiled.image, threads)),
              "");
}

TEST(Determinism, MetricsCountersBitIdenticalAcrossThreadCounts)
{
    // The obs determinism contract: every counter counts work items
    // (pure functions of the input image), never scheduling
    // artifacts, so the whole counter map is bit-identical for
    // threads in {1, 2, hardware}.
    corpus::GeneratorSpec spec;
    spec.num_classes = 24;
    spec.num_trees = 2;
    spec.max_depth = 3;
    spec.scenarios_per_class = 2;
    spec.mi_prob = 0.1;
    spec.seed = 13;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));

    auto counters_with = [&](int threads) {
        obs::Registry::global().reset();
        run_with(compiled.image, threads);
        return obs::Registry::global().counter_values();
    };
    std::map<std::string, std::uint64_t> serial = counters_with(1);
    EXPECT_GE(serial.size(), 15u);
    for (int threads : {2, 0}) { // 0 = hardware concurrency
        SCOPED_TRACE(threads);
        EXPECT_EQ(serial, counters_with(threads));
    }
}

TEST(Determinism, StageTimingPopulatedForEveryStage)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = 20;
    spec.num_trees = 2;
    spec.seed = 11;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        ReconstructionResult result = run_with(compiled.image, threads);
        EXPECT_GT(result.timing.verify_ms, 0.0);
        EXPECT_TRUE(result.diagnostics.empty()); // toyc output is clean
        EXPECT_GT(result.timing.analyze_ms, 0.0);
        EXPECT_GT(result.timing.structural_ms, 0.0);
        EXPECT_GT(result.timing.train_ms, 0.0);
        EXPECT_GT(result.timing.distances_ms, 0.0);
        EXPECT_GT(result.timing.arborescence_ms, 0.0);
        EXPECT_GE(result.timing.total_ms,
                  result.timing.analyze_ms +
                      result.timing.structural_ms);
    }
}

TEST(Determinism, SharedPoolReusedAndCalledFromItsOwnTasks)
{
    // rockd's shape: one pool serves every reconstruct() call, reused
    // across calls and entered from tasks already running on it.
    corpus::CorpusProgram smoothing =
        corpus::benchmark_by_name("Smoothing").program;
    corpus::GeneratorSpec spec;
    spec.num_classes = 40;
    spec.num_trees = 3;
    spec.max_depth = 4;
    spec.scenarios_per_class = 2;
    spec.fold_noise_pairs = 2;
    spec.mi_prob = 0.1;
    spec.seed = 7;
    const std::vector<toyc::CompileResult> compiled = {
        toyc::compile(smoothing.program, smoothing.options),
        toyc::compile(corpus::generate_program(spec))};
    const RockConfig config;
    std::vector<ReconstructionResult> reference;
    for (const toyc::CompileResult& c : compiled)
        reference.push_back(reconstruct(c.image, config));

    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        support::ThreadPool pool(threads);
        for (std::size_t i = 0; i < compiled.size(); ++i) {
            EXPECT_EQ(first_difference(
                          reference[i],
                          reconstruct(compiled[i].image, config, pool)),
                      "");
        }
        std::vector<ReconstructionResult> nested(compiled.size());
        std::vector<support::Task> tasks(compiled.size());
        for (std::size_t i = 0; i < compiled.size(); ++i) {
            tasks[i].fn = [&, i] {
                nested[i] = reconstruct(compiled[i].image, config, pool);
            };
        }
        pool.run_tasks(tasks);
        for (std::size_t i = 0; i < compiled.size(); ++i)
            EXPECT_EQ(first_difference(reference[i], nested[i]), "");
    }
}

} // namespace
