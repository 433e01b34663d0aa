/**
 * @file
 * Consistency properties across word-set strategies and the
 * enumeration budget:
 *
 *  - on a small alphabet, the parent ranking induced by DKL over the
 *    observed-union word set agrees with the exhaustive word set
 *    (the strategies estimate the same quantity);
 *  - the enumeration budget degrades gracefully: the optimum is
 *    always present and is the first result.
 */
#include <gtest/gtest.h>

#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "graph/enumerate.h"
#include "slm/model.h"
#include "support/rng.h"

namespace {

using namespace rock;
using namespace rock::divergence;

class StrategyAgreement
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyAgreement, ObservedUnionMatchesExhaustiveRanking)
{
    support::Rng rng(GetParam());
    const int alphabet = 4;

    // Clearly separated regimes so the ranking is unambiguous:
    // parent over {0,1}, the child adds {2}, the distractor lives
    // on {3}.
    std::vector<int> base{0, static_cast<int>(rng.index(2))};
    std::vector<std::vector<int>> parent_seqs{base, base};
    std::vector<int> child_word = base;
    child_word.push_back(2);
    child_word.push_back(2);
    std::vector<std::vector<int>> child_seqs{base, child_word};
    std::vector<std::vector<int>> other_seqs{
        {3, 3, static_cast<int>(rng.index(2)) == 0 ? 3 : 0},
        {3, 0, 3}};

    slm::ModelConfig config;
    auto parent = slm::train_model(config, alphabet, parent_seqs);
    auto child = slm::train_model(config, alphabet, child_seqs);
    auto other = slm::train_model(config, alphabet, other_seqs);

    auto rank = [&](WordSetStrategy strategy) {
        WordSetConfig wc;
        wc.strategy = strategy;
        wc.exhaustive_len = 4;
        auto w_pc = build_word_set(wc, parent_seqs, child_seqs,
                                   parent.get(), alphabet);
        auto w_oc = build_word_set(wc, other_seqs, child_seqs,
                                   other.get(), alphabet);
        return kl_divergence(*parent, *child, w_pc) <
               kl_divergence(*other, *child, w_oc);
    };

    bool observed = rank(WordSetStrategy::ObservedUnion);
    bool exhaustive = rank(WordSetStrategy::Exhaustive);
    EXPECT_EQ(observed, exhaustive);
    EXPECT_TRUE(exhaustive)
        << "parent should beat the distractor under the exact set";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(EnumerateBudget, OptimumSurvivesTinyBudget)
{
    // A zero-weight near-complete graph: the degenerate landscape.
    support::Rng rng(3);
    graph::Digraph g(12);
    for (int u = 0; u < 12; ++u) {
        for (int v = 0; v < 12; ++v) {
            if (u != v && rng.chance(0.4))
                g.add_edge(u, v, 0.0);
        }
    }
    graph::Arborescence best = graph::min_forest(g);

    graph::EnumerateConfig config;
    config.max_steps = 50; // absurdly small
    auto forests = graph::enumerate_min_forests(g, config);
    ASSERT_FALSE(forests.empty());
    EXPECT_EQ(forests.front().parent, best.parent);
    EXPECT_EQ(forests.front().num_roots, best.num_roots);
}

TEST(EnumerateBudget, StepBudgetNoLongerTruncates)
{
    // The enumeration is exact: a step budget that used to stop it
    // after a few forests changes nothing. All 4^3 = 64 spanning
    // arborescences of the complete equal-weight digraph come back.
    graph::Digraph g(4);
    for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
            if (u != v)
                g.add_edge(u, v, 1.0);
        }
    }
    graph::EnumerateConfig small;
    small.max_results = 1000;
    small.max_steps = 20;
    graph::EnumerateConfig large;
    large.max_results = 1000;
    auto few = graph::enumerate_min_forests(g, small);
    auto all = graph::enumerate_min_forests(g, large);
    ASSERT_EQ(few.size(), all.size());
    EXPECT_EQ(all.size(), 64u);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(few[i].parent, all[i].parent);
}

} // namespace
