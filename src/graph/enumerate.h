/**
 * @file
 * Bounded enumeration of (near-)optimal spanning forests.
 *
 * The arborescence solver can admit several co-optimal solutions
 * (paper Section 4.2.2, "Handling Multiple Arborescences"); the
 * majority-vote tie-breaking heuristic needs the whole co-optimal set.
 * enumerate_min_forests() performs a branch-and-bound search over
 * parent assignments under the same super-root/penalty semantics as
 * graph::min_forest() and returns every forest whose total cost is
 * within epsilon of the optimum, up to a configurable cap.
 *
 * The pipeline calls it once per multi-member family, on the weighted
 * feasible graph; whether a family is structurally ambiguous is the
 * exact, search-free test in graph/ambiguity.h, not a zero-weight
 * enumeration. Counting zero-weight forests (the echoparams case
 * study's "structural hierarchies") still uses this enumerator.
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
    /**
     * Budget on search steps. Degenerate weight landscapes (many
     * zero-weight edges over large sparse families) can make the
     * branch-and-bound blow up; when the budget runs out, the
     * forests found so far are returned. The Edmonds optimum is
     * always among them.
     */
    long max_steps = 2000000;
};

/**
 * All spanning forests of @p graph within epsilon of the minimum
 * (root penalties included in the comparison, so solutions with more
 * roots than necessary are never co-optimal; under a step budget the
 * set may be truncated). The optimum itself is always the first
 * element.
 */
std::vector<Arborescence>
enumerate_min_forests(const Digraph& graph,
                      const EnumerateConfig& config = {});

/** Searches cut short, by the budget that cut them. */
struct EnumerateCuts {
    /** Searches that ran past EnumerateConfig::max_steps. */
    std::uint64_t steps = 0;
    /** Searches that stopped at EnumerateConfig::max_results. */
    std::uint64_t results = 0;
};

/**
 * Monotone per-thread totals of enumerate_min_forests() calls on the
 * calling thread whose search a budget cut, so that the returned set
 * may lack co-optimal forests. reconstruct() reads the deltas around
 * each family's solve, stores them in the family's "famsolve"
 * artifact and adds them to the `budget.enumerate_steps` and
 * `budget.max_alternatives` counters once per family, like
 * thread_contraction_tally().
 */
EnumerateCuts thread_enumerate_cuts();

} // namespace rock::graph
