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
 *    roots of separate hierarchies (Remark 4.2). certify_min_forest()
 *    adds the solve's reduced edge weights, which the exact tie
 *    enumeration (graph/enumerate.h) prunes by.
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

/** min_forest() together with the optimality certificate of its one
 *  solve. */
struct ForestCertificate {
    /** Exactly min_forest(graph), bit for bit. */
    Arborescence forest;
    /** Per node: the index in graph.edges() of its chosen in-edge, -1
     *  at a root. */
    std::vector<int> in_edge;
    /**
     * Reduced weight of every edge of the graph, then of every node
     * v's super-root edge (index num_edges + v): 0 on the chosen
     * edges, >= 0 on the others. With y_S >= 0 the dual of each
     * contracted cycle S, every forest A costs
     *   opt + sum_{e in A} reduced(e) + sum_S y_S (entries_A(S) - 1),
     * each term >= 0, so a forest within epsilon of the optimum uses
     * no edge whose reduced weight exceeds epsilon (up to rounding).
     */
    std::vector<double> reduced;
    /** The root penalty the solve charged per root. */
    double penalty = 0.0;
    /** Contraction levels of the solve: each reduced weight is at
     *  most levels + 1 subtractions away from its edge's weight. */
    int levels = 0;
};

/** min_forest() plus its certificate, from the same single solve (it
 *  moves thread_contraction_tally() exactly as min_forest() does). */
ForestCertificate certify_min_forest(const Digraph& graph);

/**
 * Monotone per-thread total of supernode contractions performed by
 * min_forest() and certify_min_forest() on the calling thread, the
 * only per-contraction count. min_arborescence() does not count: the
 * tie enumeration's completion checks call it, and they are not family
 * solves.
 * reconstruct() reads its delta around each family's solve, stores it
 * in the family's "famsolve" artifact and adds it to the
 * `graph.edmonds.contractions` counter once per family; a direct
 * solver call outside reconstruct() moves only this tally.
 */
std::uint64_t thread_contraction_tally();

} // namespace rock::graph
