/**
 * @file
 * A small generic forward dataflow framework over recovered CFGs.
 *
 * A *problem* is any type P providing:
 *
 *   using Domain = ...;                 // a lattice value
 *   Domain boundary() const;            // entry value
 *   Domain top() const;                 // meet identity, the initial
 *                                       // value of every other block
 *   void meet(Domain& into,             // into = into /\ from
 *             const Domain& from) const;
 *   Domain transfer(const Cfg& cfg,     // apply one whole block
 *                   int block,
 *                   Domain in) const;
 *
 * solve() iterates blocks in reverse postorder until fixpoint, which
 * converges in a handful of sweeps on reducible intra-procedural
 * graphs. Blocks unreachable from the entry keep `top()` as their
 * input, so a *must* (intersection) problem vacuously holds on dead
 * code -- callers that care report unreachability separately
 * (cfg/verify.h).
 *
 * Instantiations shipped with the framework: reaching definitions and
 * constant propagation (cfg/analyses.h), plus the verifier's "ever
 * defined" and "a call definitely happened" analyses.
 */
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "cfg/cfg.h"

namespace rock::cfg {

/** Per-block input/output facts of a solved problem. */
template <class Domain>
struct BlockFacts {
    Domain in;
    Domain out;
};

/** Blocks of @p cfg reachable from the entry, in reverse postorder
 *  (entry first): the sweep order of solve(). */
inline std::vector<int>
reverse_postorder(const Cfg& cfg)
{
    std::vector<int> order;
    if (cfg.blocks.empty())
        return order;
    std::vector<int> state(cfg.blocks.size(), 0); // 0 new 1 open 2 done
    // Iterative DFS with an explicit stack of (block, next-succ).
    std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
    state[0] = 1;
    while (!stack.empty()) {
        auto& [b, next] = stack.back();
        const auto& succs = cfg.blocks[static_cast<std::size_t>(b)].succs;
        if (next < succs.size()) {
            int s = succs[next++];
            if (state[static_cast<std::size_t>(s)] == 0) {
                state[static_cast<std::size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            state[static_cast<std::size_t>(b)] = 2;
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/**
 * Solve the forward @p problem over @p cfg to fixpoint.
 *
 * @return one BlockFacts per block, indexed by block id: `in` is the
 *         fact at block entry, `out` the fact at block exit.
 */
template <class P>
std::vector<BlockFacts<typename P::Domain>>
solve(const Cfg& cfg, const P& problem)
{
    using Domain = typename P::Domain;
    const std::size_t n = cfg.blocks.size();
    std::vector<BlockFacts<Domain>> facts(
        n, BlockFacts<Domain>{problem.top(), problem.top()});
    if (n == 0)
        return facts;

    const std::vector<int> order = reverse_postorder(cfg);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : order) {
            auto& fb = facts[static_cast<std::size_t>(b)];
            Domain in = b == 0 ? problem.boundary() : problem.top();
            for (int p : cfg.blocks[static_cast<std::size_t>(b)].preds)
                problem.meet(in,
                             facts[static_cast<std::size_t>(p)].out);
            Domain out = problem.transfer(cfg, b, in);
            if (!(in == fb.in) || !(out == fb.out)) {
                fb.in = std::move(in);
                fb.out = std::move(out);
                changed = true;
            }
        }
    }
    return facts;
}

} // namespace rock::cfg
