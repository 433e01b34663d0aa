/**
 * @file
 * Exact enumeration of (near-)optimal spanning forests.
 *
 * The arborescence solver can admit several co-optimal solutions
 * (paper Section 4.2.2, "Handling Multiple Arborescences"); the
 * majority-vote tie-breaking heuristic needs the whole co-optimal set.
 * enumerate_min_forests() returns every forest whose total cost, root
 * penalties included, is within epsilon of the optimum, under the same
 * super-root/penalty semantics as graph::min_forest(), up to a cap.
 *
 * The set is defined by a depth-first search over parent assignments:
 * nodes in index order, each node's candidates cheapest first (ties in
 * edge order, "root" after every real edge), and a branch admitted
 * while its node-order cost plus the cheapest candidate of every later
 * node stays within the optimum plus epsilon. The results are that
 * search's forests in its order, capped at max_results, then sorted
 * stably by cost after the Edmonds optimum, which always comes first.
 * One exception: a forest whose cost lies within rounding of the limit
 * (optimum plus epsilon) is admitted or not by the rounding of its
 * node-order sum, so the search kept some of two exactly tied forests
 * there and dropped others; the enumeration may omit such a forest.
 * That takes an epsilon below the rounding of the sums: exact ties at
 * epsilon 0 under a large root penalty, never the pipeline's ties.
 *
 * It finds them without a blind search. One Edmonds solve yields the
 * optimum and every edge's reduced weight (graph::ForestCertificate);
 * an edge whose reduced weight exceeds epsilon (plus a rounding bound)
 * is in no result, so the search visits only the "tight" candidates.
 * It carries a witness forest, starting as the optimum, and enters a
 * candidate other than the witness's only once a completion within the
 * limit is known: by swapping the candidate into the witness, or else
 * by an Edmonds solve of the tight graph with the earlier nodes fixed.
 * Every entered branch thus yields a forest, so the work is about
 * max_results x (nodes with tied candidates) checks, with no step
 * budget and no dependence on search luck.
 *
 * The pipeline calls it once per multi-member family, on the weighted
 * feasible graph; whether a family is structurally ambiguous is the
 * exact test in graph/ambiguity.h. Counting zero-weight forests (the
 * echoparams case study's "structural hierarchies") also uses it.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/edmonds.h"

namespace rock::graph {

/** Bounds for the enumeration. */
struct EnumerateConfig {
    /** Absolute weight slack admitted as "equally minimal". */
    double epsilon = 1e-9;
    /** Cap on returned forests. */
    int max_results = 256;
    /** Ignored: the enumeration is exact and has no step budget. Kept
     *  so that callers that still set it compile. */
    long max_steps = 2000000;
};

/**
 * All spanning forests of @p graph within epsilon of the minimum (root
 * penalties included in the comparison), capped at
 * EnumerateConfig::max_results. The Edmonds optimum, min_forest() of
 * the candidate graph, is always the first element.
 */
std::vector<Arborescence>
enumerate_min_forests(const Digraph& graph,
                      const EnumerateConfig& config = {});

/**
 * The reduced-weight cut of enumerate_min_forests(): a forest it can
 * admit at @p epsilon on the candidate graph @p graph, whose solve
 * @p cert certifies, uses no edge whose reduced weight exceeds this.
 * It is epsilon plus the search's 1e-12 tolerance plus a bound on the
 * rounding of the reduced weights and of the node-order sums. Exposed
 * for testing.
 */
double tight_bound(const Digraph& graph, const ForestCertificate& cert,
                   double epsilon);

/** Searches cut short, by the budget that cut them. */
struct EnumerateCuts {
    /** Searches that stopped at EnumerateConfig::max_results. */
    std::uint64_t results = 0;
};

/**
 * Monotone per-thread totals of enumerate_min_forests() calls on the
 * calling thread whose set reached the cap, so that it may lack
 * co-optimal forests. reconstruct() reads the delta around each
 * family's solve, stores it in the family's "famsolve" artifact and
 * adds it to the `budget.max_alternatives` counter once per family,
 * like thread_contraction_tally().
 */
EnumerateCuts thread_enumerate_cuts();

} // namespace rock::graph
