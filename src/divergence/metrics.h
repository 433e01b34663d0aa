/**
 * @file
 * Divergence metrics between trained language models.
 *
 * The primary metric is the Kullback-Leibler divergence of paper
 * Section 4.2.1:
 *
 *   DKL(A || B) = sum_{w in W} P_A(w) ln( P_A(w) / P_B(w) )
 *
 * with both distributions normalized over the word set W. The paper's
 * "Other Metrics" paragraph also evaluates the symmetric
 * JS-divergence and JS-distance (and finds them inferior because the
 * parent/child relation is inherently asymmetric); both are provided
 * for the ablation benchmark.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "divergence/word_set.h"
#include "slm/model.h"

namespace rock::divergence {

/**
 * Per-thread running totals of pairs evaluated and words integrated
 * over, the only per-pair count. reconstruct() reads their deltas
 * around each family's distance work, stores them in the family's
 * "famdist" artifact and adds them to the `divergence.pairs` and
 * `divergence.words` counters once per family, on a cold run and a
 * warm one alike. A direct pair_distance() outside reconstruct()
 * moves only these tallies.
 */
struct PairTally {
    std::uint64_t pairs = 0;
    std::uint64_t words = 0;
};

/** Monotone tallies of raw_pair_distance() work done on this
 *  thread (pair_distance() included). */
PairTally thread_pair_tally();

/** Selectable pairwise metrics. */
enum class MetricKind {
    /** DKL(first || second) -- the paper's choice. */
    KL,
    /** DKL(second || first) -- direction ablation. */
    KLReversed,
    /** Jensen-Shannon divergence (symmetric). */
    JSDivergence,
    /** sqrt(JS divergence) (a true metric). */
    JSDistance,
};

/** Parse "kl" / "kl-reversed" / "js" / "js-distance". */
MetricKind metric_from_name(const std::string& name);

/** Printable name of @p kind. */
std::string metric_name(MetricKind kind);

/**
 * Normalized word probabilities of @p model over @p words.
 * Every entry is strictly positive.
 */
std::vector<double> word_distribution(const slm::LanguageModel& model,
                                      const WordSet& words);

/** DKL(A || B) over @p words (normalized). Non-negative. */
double kl_divergence(const slm::LanguageModel& a,
                     const slm::LanguageModel& b, const WordSet& words);

/** Jensen-Shannon divergence over @p words. In [0, ln 2]. */
double js_divergence(const slm::LanguageModel& a,
                     const slm::LanguageModel& b, const WordSet& words);

/** sqrt of js_divergence(). */
double js_distance(const slm::LanguageModel& a,
                   const slm::LanguageModel& b, const WordSet& words);

/**
 * Edge weight for "a is the parent of b" under @p kind.
 *
 * For MetricKind::KL this is DKL(SLM(parent) || SLM(child)): inherited
 * behavior makes the parent's distribution nearly contained in the
 * child's, so true parent edges are cheap. Equal, bit for bit, to
 * raw_pair_distance() over both models' sequence_prob() of each word.
 */
double pair_distance(MetricKind kind, const slm::LanguageModel& parent,
                     const slm::LanguageModel& child,
                     const WordSet& words);

/**
 * The one metric implementation: @p parent and @p child hold the two
 * models' raw word probabilities over the same word set, in word-set
 * order. Normalizes each (word_distribution()'s sum and division) and
 * evaluates @p kind with kl_between()'s and the JS functions'
 * expressions, so the result matches them bit for bit. Bumps the
 * calling thread's PairTally.
 */
double raw_pair_distance(MetricKind kind,
                         std::span<const double> parent,
                         std::span<const double> child);

/** DKL between two explicit discrete distributions (helper). */
double kl_between(const std::vector<double>& p,
                  const std::vector<double>& q);

} // namespace rock::divergence
