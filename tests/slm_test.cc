/**
 * @file
 * Unit and property tests for the statistical language models.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "support/error.h"
#include "slm/katz.h"
#include "slm/model.h"
#include "slm/ngram.h"
#include "slm/ppm.h"
#include "support/rng.h"

namespace {

using namespace rock::slm;

// ---------------------------------------------------------------------
// Context trie
// ---------------------------------------------------------------------

TEST(ContextTrie, CountsOrderZero)
{
    ContextTrie trie(2);
    trie.add_sequence({0, 1, 0});
    EXPECT_EQ(trie.count_of(ContextTrie::kRoot, 0), 2);
    EXPECT_EQ(trie.count_of(ContextTrie::kRoot, 1), 1);
    EXPECT_EQ(trie.total(ContextTrie::kRoot), 3);
}

TEST(ContextTrie, CountsDeeperOrders)
{
    ContextTrie trie(2);
    trie.add_sequence({0, 1, 0, 1});
    // Context "0": successors {1:2}.
    std::vector<ContextTrie::NodeId> chain;
    trie.context_chain({0}, chain);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(trie.count_of(chain[1], 1), 2);
    // Context "0 1" (most recent last): successor {0:1}.
    chain.clear();
    trie.context_chain({0, 1}, chain);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(trie.count_of(chain[2], 0), 1);
}

TEST(ContextTrie, ChainTruncatesAtDepth)
{
    ContextTrie trie(1);
    trie.add_sequence({0, 1, 2});
    std::vector<ContextTrie::NodeId> chain;
    trie.context_chain({0, 1}, chain);
    EXPECT_LE(chain.size(), 2u); // root + at most depth 1
}

TEST(ContextTrie, CountOfCountsPerOrder)
{
    ContextTrie trie(1);
    trie.add_sequence({0, 0, 1});
    auto coc = trie.count_of_counts();
    ASSERT_EQ(coc.size(), 2u);
    // Order 0: symbol 0 twice, symbol 1 once -> N_2 = 1, N_1 = 1,
    // sorted by count ascending.
    ASSERT_EQ(coc[0].size(), 2u);
    EXPECT_EQ(coc[0][0], (std::pair<int, long>{1, 1}));
    EXPECT_EQ(coc[0][1], (std::pair<int, long>{2, 1}));
}

TEST(ContextTrie, CountsVectorSortedBySymbol)
{
    ContextTrie trie(2);
    trie.add_sequence({3, 1, 2, 1, 0});
    const auto& counts = trie.counts(ContextTrie::kRoot);
    ASSERT_FALSE(counts.empty());
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_LT(counts[i - 1].first, counts[i].first);
    EXPECT_EQ(trie.distinct(ContextTrie::kRoot), counts.size());
}

// ---------------------------------------------------------------------
// PPM-C hand-computed probabilities (paper Section 3.1 example)
// ---------------------------------------------------------------------

TEST(Ppm, HandComputedEscapeChain)
{
    // Train on "aa" and "ab" over alphabet {a, b, c}.
    PpmModel model(3, 2, /*exclusion=*/false);
    model.train({0, 0});
    model.train({0, 1});

    // Root counts: a:2 in first positions + context updates...
    // At the empty context, counts are {a:3, b:1}: total 4, distinct 2.
    // PPM-C: P(a|e) = 3/6, P(b|e) = 1/6, escape = 2/6.
    EXPECT_NEAR(model.prob(0, {}), 3.0 / 6.0, 1e-12);
    EXPECT_NEAR(model.prob(1, {}), 1.0 / 6.0, 1e-12);
    // c unseen: escape to uniform: 2/6 * 1/3.
    EXPECT_NEAR(model.prob(2, {}), 2.0 / 6.0 / 3.0, 1e-12);

    // Context "a": counts {a:1, b:1}: P(a|a) = 1/4.
    EXPECT_NEAR(model.prob(0, {0}), 1.0 / 4.0, 1e-12);
    // c after a: escape(1/2) * escape(2/6) * uniform(1/3).
    EXPECT_NEAR(model.prob(2, {0}),
                0.5 * (2.0 / 6.0) * (1.0 / 3.0), 1e-12);
}

TEST(Ppm, UnseenContextFallsThrough)
{
    PpmModel model(2, 2, false);
    model.train({0, 0});
    // Context "1" never seen: the chain stops at the root.
    EXPECT_NEAR(model.prob(0, {1}), model.prob(0, {}), 1e-12);
}

TEST(Ppm, UntrainedModelIsUniform)
{
    PpmModel model(4, 2, false);
    for (int s = 0; s < 4; ++s)
        EXPECT_NEAR(model.prob(s, {}), 0.25, 1e-12);
}

TEST(Ppm, DeeperContextSharpensPrediction)
{
    PpmModel model(3, 2, false);
    for (int i = 0; i < 8; ++i)
        model.train({0, 1, 2});
    // After 0,1 the model should strongly predict 2.
    EXPECT_GT(model.prob(2, {0, 1}), 0.8);
    EXPECT_GT(model.prob(2, {0, 1}), model.prob(2, {}));
}

TEST(Ppm, SequenceProbIsChainProduct)
{
    PpmModel model(3, 2, false);
    model.train({0, 1, 2});
    double manual = model.prob(0, {}) * model.prob(1, {0}) *
                    model.prob(2, {0, 1});
    EXPECT_NEAR(model.sequence_prob({0, 1, 2}), manual, 1e-12);
    EXPECT_NEAR(model.sequence_log_prob({0, 1, 2}), std::log(manual),
                1e-12);
}

// ---------------------------------------------------------------------
// Property sweeps over random training data
// ---------------------------------------------------------------------

struct SweepParam {
    ModelKind kind;
    int depth;
    bool exclusion;
    std::uint64_t seed;
};

class ModelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ModelSweep, ConditionalDistributionsNormalized)
{
    const SweepParam param = GetParam();
    const int alphabet = 5;
    ModelConfig config;
    config.kind = param.kind;
    config.depth = param.depth;
    config.exclusion = param.exclusion;
    auto model = make_model(config, alphabet);

    rock::support::Rng rng(param.seed);
    for (int seq = 0; seq < 12; ++seq) {
        std::vector<int> data;
        std::size_t len = 1 + rng.index(9);
        for (std::size_t i = 0; i < len; ++i)
            data.push_back(static_cast<int>(rng.index(alphabet)));
        model->train(data);
    }

    // Check sum over the alphabet for assorted contexts.
    std::vector<std::vector<int>> contexts{
        {}, {0}, {1, 2}, {4, 4}, {0, 1, 2, 3}};
    for (const auto& ctx : contexts) {
        double total = 0.0;
        for (int s = 0; s < alphabet; ++s) {
            double p = model->prob(s, ctx);
            EXPECT_GT(p, 0.0);
            EXPECT_LE(p, 1.0 + 1e-9);
            total += p;
        }
        // All families are sub-normalized or exactly normalized;
        // exclusion-PPM and the n-gram are exact.
        EXPECT_LE(total, 1.0 + 1e-9);
        if ((param.kind == ModelKind::PpmC && param.exclusion) ||
            param.kind == ModelKind::NGram) {
            EXPECT_NEAR(total, 1.0, 1e-9);
        } else {
            EXPECT_GT(total, 0.3);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ModelSweep,
    ::testing::Values(
        SweepParam{ModelKind::PpmC, 2, false, 1},
        SweepParam{ModelKind::PpmC, 2, true, 2},
        SweepParam{ModelKind::PpmC, 3, false, 3},
        SweepParam{ModelKind::PpmC, 3, true, 4},
        SweepParam{ModelKind::PpmC, 1, false, 5},
        SweepParam{ModelKind::Katz, 2, false, 6},
        SweepParam{ModelKind::Katz, 3, false, 7},
        SweepParam{ModelKind::NGram, 2, false, 8},
        SweepParam{ModelKind::NGram, 1, false, 9},
        SweepParam{ModelKind::NGram, 3, false, 10}));

TEST(Katz, SeenCountsAreDiscounted)
{
    KatzModel model(3, 1);
    // Many singleton events so Good-Turing has mass to shift.
    model.train({0, 1});
    model.train({0, 2});
    model.train({0, 1});
    // P(unseen successor | 0) must be positive.
    EXPECT_GT(model.prob(0, {0}), 0.0);
    double total = 0.0;
    for (int s = 0; s < 3; ++s)
        total += model.prob(s, {0});
    EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(NGram, LaplaceExactValues)
{
    NGramModel model(2, 1);
    model.train({0, 0, 1});
    // Context "0": counts {0:1, 1:1}; P(0|0) = (1+1)/(2+2) = 0.5.
    EXPECT_NEAR(model.prob(0, {0}), 0.5, 1e-12);
    // Root: counts {0:2, 1:1}; P(1|e) = (1+1)/(3+2) = 0.4.
    EXPECT_NEAR(model.prob(1, {}), 0.4, 1e-12);
}

TEST(Factory, RejectsBadConfig)
{
    ModelConfig config;
    EXPECT_THROW(make_model(config, 0), rock::support::FatalError);
    config.depth = -1;
    EXPECT_THROW(make_model(config, 3), rock::support::FatalError);
}

TEST(Factory, TrainModelConvenience)
{
    ModelConfig config;
    auto model = train_model(config, 3, {{0, 1}, {0, 1}, {0, 2}});
    // 1 followed 0 twice, 2 once: the model must rank them so.
    EXPECT_GT(model->prob(1, {0}), model->prob(2, {0}));
}

TEST(Models, TrainRejectsForeignSymbols)
{
    PpmModel model(2, 2, false);
    EXPECT_THROW(model.train({0, 5}), rock::support::PanicError);
    EXPECT_THROW(model.prob(9, {}), rock::support::PanicError);
}

} // namespace
