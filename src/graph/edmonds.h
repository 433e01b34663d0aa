/**
 * @file
 * Minimum-weight spanning arborescence (Chu-Liu/Edmonds, 1967).
 *
 * The paper lifts pairwise type distances to the most likely class
 * hierarchy by solving this problem per type family (Section 4.2.2,
 * citing Edmonds [15]).
 *
 * Two entry points:
 *
 *  - min_arborescence(): classic rooted solver;
 *  - min_forest(): realizes the paper's Heuristic 4.1 ("it is more
 *    plausible for a binary type to be a derived type than a root
 *    type") by attaching a super-root whose edges carry a uniform
 *    penalty larger than any possible sum of real edge weights. The
 *    optimizer therefore first minimizes the number of roots, then
 *    the total divergence; nodes kept under the super-root become
 *    roots of separate hierarchies (Remark 4.2).
 *
 * The solver is one loop over a single working edge array that each
 * contraction level compacts in place; a level keeps only O(V) state
 * for unwinding (each node's cheapest in-edge, its cycle id and the
 * input-node map), so memory is O(E + V * levels) rather than a copy
 * of the edge list per level. Ties break one fixed way: the first
 * minimum in-edge in edge order, cycles numbered in the order a
 * start-node sweep discovers them, non-cycle nodes numbered before
 * supernodes, and chosen edges unwound deepest level first (which
 * also fixes the order Arborescence::weight is summed in).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"

namespace rock::graph {

/** An arborescence/forest encoded as a parent vector. */
struct Arborescence {
    /** parent[v] = chosen predecessor, or -1 when v is a root. */
    std::vector<int> parent;
    /** Sum of chosen real-edge weights (root penalties excluded). */
    double weight = 0.0;
    /** Number of roots (nodes with parent -1). */
    int num_roots = 0;
};

/**
 * Minimum-weight spanning arborescence of @p graph rooted at @p root.
 *
 * @return std::nullopt when some node is unreachable from @p root.
 *         Deterministic tie-breaking (by edge insertion order).
 */
std::optional<Arborescence> min_arborescence(const Digraph& graph,
                                             int root);

/**
 * Minimum-weight spanning forest of @p graph under a uniform root
 * penalty chosen internally (> total absolute weight). Always
 * succeeds; unreachable nodes become roots.
 */
Arborescence min_forest(const Digraph& graph);

/**
 * Monotone per-thread total of supernode contractions performed by
 * the solver on the calling thread. Mirrors the
 * `graph.edmonds.contractions` counter but is bumped even when
 * metrics are disabled: the warm-cache pipeline (src/cache/) stores
 * deltas of this tally with cached family solutions so a warm run
 * replays the exact counter increments of a cold run.
 */
std::uint64_t thread_contraction_tally();

} // namespace rock::graph
