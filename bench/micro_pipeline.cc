/**
 * @file
 * google-benchmark microbenchmarks for whole-pipeline stages on
 * representative programs.
 */
#include <benchmark/benchmark.h>

#include "analysis/analyze.h"
#include "cfg/cfg_cache.h"
#include "cfg/verify.h"
#include "corpus/examples.h"
#include "corpus/generator.h"
#include "rock/pipeline.h"
#include "structural/structural.h"
#include "support/parallel.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;

bir::BinaryImage
generated_image(int classes)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = 2;
    spec.seed = 11;
    return toyc::compile(corpus::generate_program(spec)).image;
}

void
BM_Compile(benchmark::State& state)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = static_cast<int>(state.range(0));
    spec.seed = 11;
    toyc::Program prog = corpus::generate_program(spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(toyc::compile(prog));
}
BENCHMARK(BM_Compile)->Arg(10)->Arg(40);

void
BM_CfgBuild(benchmark::State& state)
{
    bir::BinaryImage image =
        generated_image(static_cast<int>(state.range(0)));
    support::ThreadPool pool(1);
    for (auto _ : state) {
        cfg::CfgCache cache(image);
        cache.build_all(pool);
        benchmark::DoNotOptimize(cache.costs().data());
    }
}
BENCHMARK(BM_CfgBuild)->Arg(10)->Arg(40);

void
BM_Verify(benchmark::State& state)
{
    bir::BinaryImage image =
        generated_image(static_cast<int>(state.range(0)));
    support::ThreadPool pool(1);
    cfg::CfgCache cache(image);
    cache.build_all(pool);
    for (auto _ : state)
        benchmark::DoNotOptimize(cfg::verify_image(image, pool, cache));
}
BENCHMARK(BM_Verify)->Arg(10)->Arg(40);

void
BM_Analyze(benchmark::State& state)
{
    bir::BinaryImage image =
        generated_image(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(analysis::analyze(image));
}
BENCHMARK(BM_Analyze)->Arg(10)->Arg(40);

void
BM_StructuralAnalysis(benchmark::State& state)
{
    bir::BinaryImage image =
        generated_image(static_cast<int>(state.range(0)));
    analysis::AnalysisResult analyzed = analysis::analyze(image);
    for (auto _ : state) {
        benchmark::DoNotOptimize(structural::structural_analysis(
            analyzed.vtables, analyzed.evidence, analyzed.ctor_types));
    }
}
BENCHMARK(BM_StructuralAnalysis)->Arg(10)->Arg(40);

void
BM_FullReconstruct(benchmark::State& state)
{
    bir::BinaryImage image =
        generated_image(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::reconstruct(image));
}
BENCHMARK(BM_FullReconstruct)->Arg(10)->Arg(40);

void
BM_FullReconstructThreads(benchmark::State& state)
{
    bir::BinaryImage image = generated_image(40);
    core::RockConfig config;
    config.threads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::reconstruct(image, config));
}
BENCHMARK(BM_FullReconstructThreads)->Arg(1)->Arg(2)->Arg(4);

void
BM_ReconstructStreams(benchmark::State& state)
{
    corpus::CorpusProgram example = corpus::streams_program();
    bir::BinaryImage image =
        toyc::compile(example.program, example.options).image;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::reconstruct(image));
}
BENCHMARK(BM_ReconstructStreams);

} // namespace

BENCHMARK_MAIN();
