/**
 * @file
 * google-benchmark microbenchmarks for SLM training, querying, and
 * divergence computation -- the inner loops of the pipeline.
 */
#include <benchmark/benchmark.h>

#include <algorithm>

#include "divergence/family_words.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "slm/model.h"
#include "support/rng.h"

namespace {

using namespace rock;

std::vector<std::vector<int>>
random_sequences(int count, int len, int alphabet, std::uint64_t seed)
{
    support::Rng rng(seed);
    std::vector<std::vector<int>> out;
    for (int i = 0; i < count; ++i) {
        std::vector<int> seq;
        for (int k = 0; k < len; ++k)
            seq.push_back(static_cast<int>(rng.index(
                static_cast<std::size_t>(alphabet))));
        out.push_back(std::move(seq));
    }
    return out;
}

void
BM_SlmTrain(benchmark::State& state)
{
    const int alphabet = 32;
    auto seqs = random_sequences(static_cast<int>(state.range(0)), 7,
                                 alphabet, 1);
    slm::ModelConfig config;
    config.kind = static_cast<slm::ModelKind>(state.range(1));
    for (auto _ : state) {
        auto model = slm::make_model(config, alphabet);
        for (const auto& seq : seqs)
            model->train(seq);
        benchmark::DoNotOptimize(model);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(seqs.size()));
}
BENCHMARK(BM_SlmTrain)
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({64, 1})
    ->Args({64, 2});

void
BM_SlmSequenceProb(benchmark::State& state)
{
    const int alphabet = 32;
    auto train = random_sequences(256, 7, alphabet, 1);
    auto query = random_sequences(64, 7, alphabet, 2);
    slm::ModelConfig config;
    config.kind = static_cast<slm::ModelKind>(state.range(0));
    auto model = slm::train_model(config, alphabet, train);
    for (auto _ : state) {
        double total = 0.0;
        for (const auto& seq : query)
            total += model->sequence_log_prob(seq);
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(query.size()));
}
BENCHMARK(BM_SlmSequenceProb)->Arg(0)->Arg(1)->Arg(2);

void
BM_KlDivergence(benchmark::State& state)
{
    const int alphabet = 32;
    auto sa = random_sequences(static_cast<int>(state.range(0)), 7,
                               alphabet, 1);
    auto sb = random_sequences(static_cast<int>(state.range(0)), 7,
                               alphabet, 2);
    slm::ModelConfig config;
    auto a = slm::train_model(config, alphabet, sa);
    auto b = slm::train_model(config, alphabet, sb);
    divergence::WordSetConfig words_config;
    auto words =
        divergence::build_word_set(words_config, sa, sb, nullptr,
                                   alphabet);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            divergence::kl_divergence(*a, *b, words));
    }
}
BENCHMARK(BM_KlDivergence)->Arg(32)->Arg(128)->Arg(512);

/**
 * A seeded family shaped like the pipeline's hard case: every one of
 * 64 children has all 256 parents as weighed candidates (edges in
 * (child, parent) order, as the candidate table lists them), over a
 * 32-symbol alphabet. Each type draws five tracelets from an
 * inherited pool and adds one of its own. With @p twins, the types
 * share 80 such behaviors instead (type t takes behavior t % 80's
 * tracelets, rotated by t): 80 parent and 64 child twin classes, so
 * the 16,384 edges hold 5,120 distinct (parent class, child class)
 * keys.
 */
struct FamilyInput {
    std::vector<std::vector<std::vector<int>>> seqs;
    std::vector<std::unique_ptr<slm::LanguageModel>> models;
    std::vector<std::pair<int, int>> edges;
};

FamilyInput
make_family_input(bool twins)
{
    const int alphabet = 32;
    const int parents = 256;
    const int children = 64;
    const int behaviors = twins ? 80 : parents + children;
    const auto pool = random_sequences(48, 7, alphabet, 3);
    support::Rng rng(4);
    std::vector<std::vector<std::vector<int>>> behavior;
    for (int b = 0; b < behaviors; ++b) {
        auto own = random_sequences(1, 7, alphabet,
                                    100 + static_cast<std::uint64_t>(b));
        for (int k = 0; k < 5; ++k)
            own.push_back(pool[rng.index(pool.size())]);
        behavior.push_back(std::move(own));
    }
    FamilyInput in;
    for (int t = 0; t < parents + children; ++t) {
        auto own = behavior[static_cast<std::size_t>(t % behaviors)];
        if (twins)
            std::rotate(own.begin(),
                        own.begin() + t % static_cast<int>(own.size()),
                        own.end());
        in.models.push_back(
            slm::train_model(slm::ModelConfig{}, alphabet, own));
        in.seqs.push_back(std::move(own));
    }
    for (int c = parents; c < parents + children; ++c) {
        for (int p = 0; p < parents; ++p)
            in.edges.emplace_back(p, c);
    }
    return in;
}

const FamilyInput&
family_input(bool twins)
{
    static const FamilyInput distinct = make_family_input(false);
    static const FamilyInput twin = make_family_input(true);
    return twins ? twin : distinct;
}

/** Arg 0: the per-pair path (merge_word_sets() + pair_distance() per
 *  edge); arg 1: the memoized kernel (FamilyWords) on the same edges,
 *  table, fills and key weighing included; arg 2: the memoized kernel
 *  on the twin-heavy family. */
void
BM_FamilyDistances(benchmark::State& state)
{
    const FamilyInput& in = family_input(state.range(0) == 2);
    const auto kind = divergence::MetricKind::KL;
    for (auto _ : state) {
        double total = 0.0;
        if (state.range(0) == 0) {
            std::vector<divergence::WordSet> words;
            for (const auto& seqs : in.seqs)
                words.push_back(divergence::sorted_unique_words(seqs));
            for (const auto& [p, c] : in.edges) {
                const auto pi = static_cast<std::size_t>(p);
                const auto ci = static_cast<std::size_t>(c);
                total += divergence::pair_distance(
                    kind, *in.models[pi], *in.models[ci],
                    divergence::merge_word_sets(words[pi], words[ci]));
            }
        } else {
            std::vector<const std::vector<std::vector<int>>*> members;
            for (const auto& seqs : in.seqs)
                members.push_back(&seqs);
            divergence::FamilyWords memo;
            memo.intern(members, in.edges);
            divergence::FamilyWords::Scratch scratch;
            for (std::size_t i = 0; i < in.models.size(); ++i)
                memo.fill(i, *in.models[i], scratch);
            memo.weigh(kind, 0, memo.num_keys(), scratch);
            for (std::size_t e = 0; e < in.edges.size(); ++e)
                total += memo.weight(e);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(in.edges.size()));
}
BENCHMARK(BM_FamilyDistances)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
