#include "divergence/metrics.h"

#include <cmath>

#include "support/error.h"

namespace rock::divergence {

MetricKind
metric_from_name(const std::string& name)
{
    if (name == "kl")
        return MetricKind::KL;
    if (name == "kl-reversed")
        return MetricKind::KLReversed;
    if (name == "js")
        return MetricKind::JSDivergence;
    if (name == "js-distance")
        return MetricKind::JSDistance;
    support::fatal("unknown metric '" + name + "'");
}

std::string
metric_name(MetricKind kind)
{
    switch (kind) {
      case MetricKind::KL: return "kl";
      case MetricKind::KLReversed: return "kl-reversed";
      case MetricKind::JSDivergence: return "js";
      case MetricKind::JSDistance: return "js-distance";
    }
    return "?";
}

namespace {

thread_local PairTally tls_pair_tally;

/** word_distribution()'s normalizer: the entries summed in order. */
double
total_of(std::span<const double> raw)
{
    double total = 0.0;
    for (double p : raw) {
        ROCK_ASSERT(p > 0.0, "non-positive word probability");
        total += p;
    }
    ROCK_ASSERT(total > 0.0, "degenerate word distribution");
    return total;
}

/** kl_between()'s sum over p_at(i) and q_at(i) for i < n. */
template <typename P, typename Q>
double
kl_sum(std::size_t n, P p_at, Q q_at)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double p = p_at(i);
        if (p <= 0.0)
            continue;
        const double q = q_at(i);
        ROCK_ASSERT(q > 0.0, "KL against zero mass");
        sum += p * std::log(p / q);
    }
    // Guard tiny negative results from floating-point noise.
    return sum < 0.0 ? 0.0 : sum;
}

/**
 * @p kind between the distributions of raw probabilities @p a and
 * @p b. Normalized entries are computed where they are read, as the
 * same quotients word_distribution() stores, so every sum sees the
 * values and the order the vector-based functions see.
 */
double
metric_from_raw(MetricKind kind, std::span<const double> a,
                std::span<const double> b)
{
    support::check(!a.empty(), "divergence over an empty word set");
    ROCK_ASSERT(a.size() == b.size(), "distribution size mismatch");
    const double ta = total_of(a);
    const double tb = total_of(b);
    auto pa = [&](std::size_t i) { return a[i] / ta; };
    auto pb = [&](std::size_t i) { return b[i] / tb; };
    auto mid = [&](std::size_t i) { return 0.5 * (pa(i) + pb(i)); };
    switch (kind) {
      case MetricKind::KL:
        return kl_sum(a.size(), pa, pb);
      case MetricKind::KLReversed:
        return kl_sum(a.size(), pb, pa);
      case MetricKind::JSDivergence:
      case MetricKind::JSDistance: {
        const double js = 0.5 * kl_sum(a.size(), pa, mid) +
                          0.5 * kl_sum(a.size(), pb, mid);
        return kind == MetricKind::JSDistance ? std::sqrt(js) : js;
      }
    }
    support::panic("unknown metric kind");
}

/** sequence_prob() of @p model for each word of @p words, in order:
 *  one batch query, so a sorted word set shares its prefixes' walks. */
std::vector<double>
raw_word_probs(const slm::LanguageModel& model, const WordSet& words)
{
    std::vector<const std::vector<int>*> ptrs;
    ptrs.reserve(words.size());
    for (const auto& word : words)
        ptrs.push_back(&word);
    std::vector<double> raw(words.size());
    model.sequence_log_probs(ptrs, raw);
    for (double& p : raw)
        p = std::exp(p);
    return raw;
}

} // namespace

std::vector<double>
word_distribution(const slm::LanguageModel& model, const WordSet& words)
{
    support::check(!words.empty(),
                   "divergence over an empty word set");
    std::vector<double> dist = raw_word_probs(model, words);
    const double total = total_of(dist);
    for (double& p : dist)
        p /= total;
    return dist;
}

double
kl_between(const std::vector<double>& p, const std::vector<double>& q)
{
    ROCK_ASSERT(p.size() == q.size(), "distribution size mismatch");
    return kl_sum(
        p.size(), [&](std::size_t i) { return p[i]; },
        [&](std::size_t i) { return q[i]; });
}

double
kl_divergence(const slm::LanguageModel& a, const slm::LanguageModel& b,
              const WordSet& words)
{
    return metric_from_raw(MetricKind::KL, raw_word_probs(a, words),
                           raw_word_probs(b, words));
}

double
js_divergence(const slm::LanguageModel& a, const slm::LanguageModel& b,
              const WordSet& words)
{
    return metric_from_raw(MetricKind::JSDivergence,
                           raw_word_probs(a, words),
                           raw_word_probs(b, words));
}

double
js_distance(const slm::LanguageModel& a, const slm::LanguageModel& b,
            const WordSet& words)
{
    return metric_from_raw(MetricKind::JSDistance,
                           raw_word_probs(a, words),
                           raw_word_probs(b, words));
}

PairTally
thread_pair_tally()
{
    return tls_pair_tally;
}

double
pair_distance(MetricKind kind, const slm::LanguageModel& parent,
              const slm::LanguageModel& child, const WordSet& words)
{
    return raw_pair_distance(kind, raw_word_probs(parent, words),
                             raw_word_probs(child, words));
}

double
raw_pair_distance(MetricKind kind, std::span<const double> parent,
                  std::span<const double> child)
{
    // Work volume: pairs evaluated and words integrated over -- both
    // pure functions of the feasible-edge work list.
    tls_pair_tally.pairs += 1;
    tls_pair_tally.words += parent.size();
    return metric_from_raw(kind, parent, child);
}

} // namespace rock::divergence
