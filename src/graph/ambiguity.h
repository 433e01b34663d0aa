/**
 * @file
 * Exact structural-ambiguity test: does a digraph admit more than one
 * minimum-root spanning forest?
 *
 * The pipeline asks this of every multi-member family's feasible
 * graph with all weights zero (paper Section 4.2.2, "Handling
 * Multiple Arborescences"). Forests are compared as parent vectors,
 * so self-loops and parallel edges change nothing. The answer is yes
 * exactly when either
 *
 *  - some source SCC of the condensation has two or more members (any
 *    of them can be its one root), or
 *  - with a virtual root over the singleton source SCCs, some node has
 *    two or more distinct in-neighbours that it does not dominate
 *    (each of them is its parent in some forest; a dominated one never
 *    is, since that would close a cycle).
 *
 * Tarjan's SCC algorithm (iterative: families reach thousands of
 * members) plus Cooper-Harvey-Kennedy dominators decide it with no
 * search and no budget. CHK iterates over reverse postorder to a
 * fixpoint; feasible graphs settle in a few passes, so the test is
 * near-linear on them (the worst case, edges into deep nodes that
 * keep re-routing their ancestors, is quadratic). Dominance queries
 * use pre/post intervals on the dominator tree, never idom walks, so
 * long forced chains cost nothing extra.
 */
#pragma once

#include <utility>
#include <vector>

namespace rock::graph {

/**
 * True when the digraph on @p n nodes with edges (src, dst) in
 * @p edges has more than one minimum-root spanning forest, i.e. when
 * graph::enumerate_min_forests() of its zero-weight version, at
 * epsilon 0, returns two or more forests.
 */
bool has_multiple_min_forests(int n,
                              const std::vector<std::pair<int, int>>& edges);

} // namespace rock::graph
