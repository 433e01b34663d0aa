/**
 * @file
 * Unit and property tests for word sets and divergence metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <set>

#include "support/error.h"
#include "divergence/family_words.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "slm/model.h"
#include "support/rng.h"

namespace {

using namespace rock::divergence;
using namespace rock::slm;

std::unique_ptr<LanguageModel>
model_from(const std::vector<std::vector<int>>& seqs, int alphabet = 4)
{
    ModelConfig config;
    return train_model(config, alphabet, seqs);
}

// ---------------------------------------------------------------------
// Word sets
// ---------------------------------------------------------------------

TEST(WordSet, ObservedUnionDeduplicates)
{
    WordSetConfig config;
    auto words = build_word_set(config, {{0, 1}, {0, 1}},
                                {{0, 1}, {2}}, nullptr, 4);
    EXPECT_EQ(words.size(), 2u);
}

TEST(WordSet, ObservedUnionSkipsEmptySequences)
{
    WordSetConfig config;
    auto words = build_word_set(config, {{}}, {{1}}, nullptr, 4);
    ASSERT_EQ(words.size(), 1u);
    EXPECT_EQ(words[0], (std::vector<int>{1}));
}

TEST(WordSet, ExhaustiveCountsMatchPowerSum)
{
    WordSetConfig config;
    config.strategy = WordSetStrategy::Exhaustive;
    config.exhaustive_len = 3;
    auto words = build_word_set(config, {}, {}, nullptr, 3);
    // 3 + 9 + 27 words.
    EXPECT_EQ(words.size(), 39u);
}

TEST(WordSet, SampledIsDeterministicPerSeed)
{
    auto model = model_from({{0, 1, 2}, {0, 1, 3}});
    WordSetConfig config;
    config.strategy = WordSetStrategy::Sampled;
    config.sample_count = 32;
    config.sample_len = 4;
    auto a = build_word_set(config, {}, {}, model.get(), 4);
    auto b = build_word_set(config, {}, {}, model.get(), 4);
    EXPECT_EQ(a, b);
    config.seed = 99;
    auto c = build_word_set(config, {}, {}, model.get(), 4);
    EXPECT_NE(a, c);
}

TEST(WordSet, SampledFollowsModelBias)
{
    // A model trained overwhelmingly on symbol 0 should emit mostly 0.
    auto model = model_from({{0, 0, 0, 0, 0, 0, 0}}, 4);
    rock::support::Rng rng(5);
    int zeros = 0;
    int total = 0;
    for (int i = 0; i < 50; ++i) {
        auto word = sample_word(*model, 5, rng);
        for (int s : word) {
            zeros += (s == 0);
            ++total;
        }
    }
    EXPECT_GT(zeros, total / 2);
}

// ---------------------------------------------------------------------
// Divergences
// ---------------------------------------------------------------------

TEST(Divergence, KlIsZeroForIdenticalModels)
{
    auto a = model_from({{0, 1, 2}, {0, 1, 3}});
    auto b = model_from({{0, 1, 2}, {0, 1, 3}});
    WordSet words{{0, 1, 2}, {0, 1, 3}, {2, 2}};
    EXPECT_NEAR(kl_divergence(*a, *b, words), 0.0, 1e-12);
}

TEST(Divergence, KlIsNonNegative)
{
    rock::support::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::vector<int>> sa, sb;
        for (int i = 0; i < 5; ++i) {
            std::vector<int> w;
            for (std::size_t k = 0; k < 1 + rng.index(6); ++k)
                w.push_back(static_cast<int>(rng.index(4)));
            sa.push_back(w);
            std::vector<int> v;
            for (std::size_t k = 0; k < 1 + rng.index(6); ++k)
                v.push_back(static_cast<int>(rng.index(4)));
            sb.push_back(v);
        }
        auto a = model_from(sa);
        auto b = model_from(sb);
        WordSetConfig config;
        auto words = build_word_set(config, sa, sb, nullptr, 4);
        EXPECT_GE(kl_divergence(*a, *b, words), 0.0);
    }
}

TEST(Divergence, KlIsAsymmetric)
{
    // A's behaviors are contained in B's (B = A + extras): the
    // containment direction must be cheaper, mirroring the
    // parent-to-child reading of the paper.
    std::vector<std::vector<int>> parent{{0, 1}, {0, 1}};
    std::vector<std::vector<int>> child{{0, 1}, {0, 1, 2, 3},
                                        {2, 3, 2}};
    auto a = model_from(parent);
    auto b = model_from(child);
    WordSetConfig config;
    auto words = build_word_set(config, parent, child, nullptr, 4);
    double forward = kl_divergence(*a, *b, words); // parent || child
    double backward = kl_divergence(*b, *a, words);
    EXPECT_LT(forward, backward);
}

TEST(Divergence, JsIsSymmetricAndBounded)
{
    auto a = model_from({{0, 0, 0}});
    auto b = model_from({{3, 3, 3}});
    WordSet words{{0, 0, 0}, {3, 3, 3}, {1, 2}};
    double ab = js_divergence(*a, *b, words);
    double ba = js_divergence(*b, *a, words);
    EXPECT_NEAR(ab, ba, 1e-12);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, std::log(2.0) + 1e-12);
    EXPECT_NEAR(js_distance(*a, *b, words), std::sqrt(ab), 1e-12);
}

TEST(Divergence, WordDistributionNormalizes)
{
    auto a = model_from({{0, 1, 2}});
    WordSet words{{0}, {1}, {0, 1}, {2, 2, 2}};
    auto dist = word_distribution(*a, words);
    double total = 0.0;
    for (double p : dist) {
        EXPECT_GT(p, 0.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Divergence, EmptyWordSetIsFatal)
{
    auto a = model_from({{0}});
    EXPECT_THROW(word_distribution(*a, {}),
                 rock::support::FatalError);
}

TEST(Divergence, KlBetweenHandValues)
{
    std::vector<double> p{0.5, 0.5};
    std::vector<double> q{0.9, 0.1};
    double expected = 0.5 * std::log(0.5 / 0.9) +
                      0.5 * std::log(0.5 / 0.1);
    EXPECT_NEAR(kl_between(p, q), expected, 1e-12);
    EXPECT_NEAR(kl_between(p, p), 0.0, 1e-12);
}

TEST(Metrics, NamesRoundTrip)
{
    for (MetricKind kind :
         {MetricKind::KL, MetricKind::KLReversed,
          MetricKind::JSDivergence, MetricKind::JSDistance}) {
        EXPECT_EQ(metric_from_name(metric_name(kind)), kind);
    }
    EXPECT_THROW(metric_from_name("nope"), rock::support::FatalError);
}

TEST(Metrics, PairDistanceDispatch)
{
    auto a = model_from({{0, 1}});
    auto b = model_from({{0, 1}, {2, 3}});
    WordSet words{{0, 1}, {2, 3}};
    EXPECT_NEAR(pair_distance(MetricKind::KL, *a, *b, words),
                kl_divergence(*a, *b, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::KLReversed, *a, *b, words),
                kl_divergence(*b, *a, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::JSDivergence, *a, *b, words),
                js_divergence(*a, *b, words), 1e-12);
    EXPECT_NEAR(pair_distance(MetricKind::JSDistance, *a, *b, words),
                js_distance(*a, *b, words), 1e-12);
}

// ---------------------------------------------------------------------
// One metric over raw vectors; the family word table and memo
// ---------------------------------------------------------------------

constexpr MetricKind kAllMetrics[] = {
    MetricKind::KL, MetricKind::KLReversed, MetricKind::JSDivergence,
    MetricKind::JSDistance};

bool
same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** @p count random tracelets, half of them drawn from @p shared so
 *  that types overlap the way inherited behavior makes them. */
std::vector<std::vector<int>>
random_tracelets(rock::support::Rng& rng,
                 const std::vector<std::vector<int>>& shared, int count,
                 int alphabet)
{
    std::vector<std::vector<int>> out;
    for (int i = 0; i < count; ++i) {
        if (!shared.empty() && rng.index(2) == 0) {
            out.push_back(shared[rng.index(shared.size())]);
            continue;
        }
        std::vector<int> word(1 + rng.index(5));
        for (int& sym : word)
            sym = static_cast<int>(
                rng.index(static_cast<std::size_t>(alphabet)));
        out.push_back(std::move(word));
    }
    return out;
}

/** The per-pair path's expressions: word_distribution() of both
 *  models, then kl_between() or the JS formulas over a mid vector. */
double
reference_distance(MetricKind kind, const LanguageModel& parent,
                   const LanguageModel& child, const WordSet& words)
{
    const std::vector<double> pa = word_distribution(parent, words);
    const std::vector<double> pb = word_distribution(child, words);
    if (kind == MetricKind::KL)
        return kl_between(pa, pb);
    if (kind == MetricKind::KLReversed)
        return kl_between(pb, pa);
    std::vector<double> mid(pa.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        mid[i] = 0.5 * (pa[i] + pb[i]);
    const double js = 0.5 * kl_between(pa, mid) + 0.5 * kl_between(pb, mid);
    return kind == MetricKind::JSDistance ? std::sqrt(js) : js;
}

std::vector<double>
raw_probs(const LanguageModel& model, const WordSet& words)
{
    std::vector<double> raw;
    for (const auto& word : words)
        raw.push_back(model.sequence_prob(word));
    return raw;
}

TEST(Metrics, RawPairDistanceMatchesPairDistanceBitForBit)
{
    const int alphabet = 7;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        rock::support::Rng rng(seed);
        const auto shared = random_tracelets(rng, {}, 6, alphabet);
        const auto seqs_a = random_tracelets(rng, shared, 10, alphabet);
        const auto seqs_b = random_tracelets(rng, shared, 14, alphabet);
        auto a = model_from(seqs_a, alphabet);
        auto b = model_from(seqs_b, alphabet);
        const WordSet words = merge_word_sets(sorted_unique_words(seqs_a),
                                              sorted_unique_words(seqs_b));
        const std::vector<double> raw_a = raw_probs(*a, words);
        const std::vector<double> raw_b = raw_probs(*b, words);
        for (MetricKind kind : kAllMetrics) {
            SCOPED_TRACE(metric_name(kind));
            const double want = reference_distance(kind, *a, *b, words);
            const PairTally before = thread_pair_tally();
            EXPECT_TRUE(same_bits(raw_pair_distance(kind, raw_a, raw_b),
                                  want));
            const PairTally after = thread_pair_tally();
            EXPECT_EQ(after.pairs - before.pairs, 1u);
            EXPECT_EQ(after.words - before.words, words.size());
            EXPECT_TRUE(
                same_bits(pair_distance(kind, *a, *b, words), want));
        }
    }
}

TEST(FamilyWords, IdsMergeToMergeWordSetsOrder)
{
    // Members 0 and 1 overlap and each has words the other never saw;
    // member 2 has a one-word set, member 3 no tracelets, member 4 an
    // empty tracelet and a duplicate.
    const std::vector<std::vector<std::vector<int>>> seqs{
        {{0, 1}, {2}, {0, 1, 2}, {0, 1}},
        {{0, 1}, {3, 3}, {1}, {0}},
        {{2}},
        {},
        {{}, {3, 3}, {3, 3}},
    };
    std::vector<const std::vector<std::vector<int>>*> members;
    for (const auto& member : seqs)
        members.push_back(&member);
    FamilyWords table;
    table.intern(members, {});

    ASSERT_EQ(table.vocabulary_size(), 6u);
    for (std::uint32_t id = 0; id + 1 < table.vocabulary_size(); ++id)
        EXPECT_LT(table.word(id), table.word(id + 1));
    auto words_of = [&](const std::vector<std::uint32_t>& ids) {
        WordSet out;
        for (std::uint32_t id : ids)
            out.push_back(table.word(id));
        return out;
    };
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(words_of(table.word_ids(i)),
                  sorted_unique_words(seqs[i]));
        for (std::size_t j = 0; j < seqs.size(); ++j) {
            std::vector<std::uint32_t> merged;
            std::set_union(table.word_ids(i).begin(),
                           table.word_ids(i).end(),
                           table.word_ids(j).begin(),
                           table.word_ids(j).end(),
                           std::back_inserter(merged));
            EXPECT_EQ(words_of(merged),
                      merge_word_sets(sorted_unique_words(seqs[i]),
                                      sorted_unique_words(seqs[j])));
        }
    }
    EXPECT_TRUE(table.word_ids(3).empty());
}

TEST(FamilyWords, DistancesMatchPairDistanceBitForBit)
{
    const int alphabet = 6;
    rock::support::Rng rng(3);
    const auto shared = random_tracelets(rng, {}, 5, alphabet);
    std::vector<std::vector<std::vector<int>>> seqs;
    for (int i = 0; i < 9; ++i)
        seqs.push_back(random_tracelets(rng, shared, 6, alphabet));
    seqs[4].clear();  // a type with no tracelets
    seqs[7].clear();  // another: edge 4 -> 7 integrates no word
    seqs[5] = {{2}};  // a one-word set
    std::vector<std::unique_ptr<LanguageModel>> models;
    std::vector<const std::vector<std::vector<int>>*> members;
    for (const auto& member : seqs) {
        models.push_back(model_from(member, alphabet));
        members.push_back(&member);
    }
    // Member 8 is on no edge; 4 -> 7 has an empty union.
    std::vector<std::pair<int, int>> edges{{4, 7}};
    for (int p = 0; p < 8; ++p) {
        for (int c = 0; c < 8; ++c) {
            if (p != c && (p + 2 * c) % 3 != 0 && !(p == 4 && c == 7))
                edges.emplace_back(p, c);
        }
    }

    FamilyWords memo;
    memo.intern(members, edges);
    FamilyWords::Scratch scratch;
    for (std::size_t i = 0; i < seqs.size(); ++i)
        memo.fill(i, *models[i], scratch);

    // One walk per (member, needed word): its words and its
    // neighbours'.
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        std::set<std::vector<int>> need;
        bool on_edge = false;
        for (const auto& [p, c] : edges) {
            const auto pi = static_cast<std::size_t>(p);
            const auto ci = static_cast<std::size_t>(c);
            if (pi != i && ci != i)
                continue;
            on_edge = true;
            for (const auto& w : sorted_unique_words(seqs[pi == i ? ci : pi]))
                need.insert(w);
        }
        if (on_edge) {
            for (const auto& w : sorted_unique_words(seqs[i]))
                need.insert(w);
        }
        EXPECT_EQ(memo.memo_size(i), need.size()) << "member " << i;
    }
    EXPECT_EQ(memo.memo_size(8), 0u);

    for (MetricKind kind : kAllMetrics) {
        SCOPED_TRACE(metric_name(kind));
        for (const auto& [p, c] : edges) {
            const auto pi = static_cast<std::size_t>(p);
            const auto ci = static_cast<std::size_t>(c);
            const WordSet words =
                merge_word_sets(sorted_unique_words(seqs[pi]),
                                sorted_unique_words(seqs[ci]));
            const double want =
                words.empty()
                    ? 0.0
                    : pair_distance(kind, *models[pi], *models[ci], words);
            const PairTally before = thread_pair_tally();
            const double got = memo.distance(kind, pi, ci, scratch);
            const PairTally after = thread_pair_tally();
            EXPECT_TRUE(same_bits(got, want)) << p << " -> " << c;
            EXPECT_EQ(after.pairs - before.pairs, words.empty() ? 0u : 1u);
            EXPECT_EQ(after.words - before.words, words.size());
        }
    }
    memo.clear();
    EXPECT_EQ(memo.vocabulary_size(), 0u);
}

/**
 * Property sweep: for synthetic parent/child/unrelated triples, the
 * paper's Hypothesis 4.1 must hold under the default metric --
 * the true parent is closer than an unrelated type.
 */
class ContainmentSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ContainmentSweep, ParentCloserThanUnrelated)
{
    rock::support::Rng rng(GetParam());
    const int alphabet = 6;
    // Parent behavior: a random base word used repeatedly.
    std::vector<int> base;
    for (int i = 0; i < 4; ++i)
        base.push_back(static_cast<int>(rng.index(3)));
    std::vector<std::vector<int>> parent_seqs{base, base};
    // Child behavior: base + suffix over other symbols.
    std::vector<int> child_word = base;
    for (int i = 0; i < 3; ++i)
        child_word.push_back(3 + static_cast<int>(rng.index(3)));
    std::vector<std::vector<int>> child_seqs{base, child_word,
                                             child_word};
    // Unrelated: scrambled symbols.
    std::vector<std::vector<int>> other_seqs;
    for (int i = 0; i < 3; ++i) {
        std::vector<int> w;
        for (int k = 0; k < 5; ++k)
            w.push_back(static_cast<int>(rng.index(alphabet)));
        other_seqs.push_back(w);
    }

    auto parent = model_from(parent_seqs, alphabet);
    auto child = model_from(child_seqs, alphabet);
    auto other = model_from(other_seqs, alphabet);

    WordSetConfig config;
    auto w_pc =
        build_word_set(config, parent_seqs, child_seqs, nullptr,
                       alphabet);
    auto w_oc = build_word_set(config, other_seqs, child_seqs, nullptr,
                               alphabet);
    double d_parent = kl_divergence(*parent, *child, w_pc);
    double d_other = kl_divergence(*other, *child, w_oc);
    EXPECT_LT(d_parent, d_other);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
