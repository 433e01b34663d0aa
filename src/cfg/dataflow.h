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
#include <cstdint>
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

/**
 * The blocks of one CFG reachable from its entry, in reverse postorder
 * (entry first): the sweep order of solve(). A worker that walks many
 * functions keeps one BlockOrder and recomputes it per function, so
 * its buffers stop allocating once they fit the largest function.
 */
class BlockOrder {
  public:
    /** Walk @p cfg from its entry block. */
    void compute(const Cfg& cfg)
    {
        order_.clear();
        state_.assign(cfg.blocks.size(), 0); // 0 new 1 open 2 done
        if (cfg.blocks.empty())
            return;
        // Iterative DFS with an explicit stack of (block, next-succ).
        stack_.clear();
        stack_.emplace_back(0, 0);
        state_[0] = 1;
        while (!stack_.empty()) {
            auto& [b, next] = stack_.back();
            const auto& succs =
                cfg.blocks[static_cast<std::size_t>(b)].succs;
            if (next < succs.size()) {
                int s = succs[next++];
                if (state_[static_cast<std::size_t>(s)] == 0) {
                    state_[static_cast<std::size_t>(s)] = 1;
                    stack_.emplace_back(s, 0);
                }
            } else {
                state_[static_cast<std::size_t>(b)] = 2;
                order_.push_back(b);
                stack_.pop_back();
            }
        }
        std::reverse(order_.begin(), order_.end());
    }

    /** Reachable blocks in reverse postorder. */
    const std::vector<int>& order() const { return order_; }

    /** Is block @p b reachable from the entry? */
    bool reachable(int b) const
    {
        return state_[static_cast<std::size_t>(b)] != 0;
    }

  private:
    std::vector<int> order_;
    std::vector<std::uint8_t> state_;
    std::vector<std::pair<int, std::size_t>> stack_;
};

/**
 * Solve the forward @p problem over @p cfg to fixpoint, sweeping the
 * blocks in @p order (a BlockOrder's) and writing one BlockFacts per
 * block, indexed by block id, into @p facts (its buffer is reused):
 * `in` is the fact at block entry, `out` the fact at block exit.
 */
template <class P>
void
solve(const Cfg& cfg, const P& problem, const std::vector<int>& order,
      std::vector<BlockFacts<typename P::Domain>>& facts)
{
    using Domain = typename P::Domain;
    facts.assign(cfg.blocks.size(),
                 BlockFacts<Domain>{problem.top(), problem.top()});
    bool changed = !order.empty();
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
}

/** solve() in a fresh reverse postorder into a fresh vector. */
template <class P>
std::vector<BlockFacts<typename P::Domain>>
solve(const Cfg& cfg, const P& problem)
{
    BlockOrder order;
    order.compute(cfg);
    std::vector<BlockFacts<typename P::Domain>> facts;
    solve(cfg, problem, order.order(), facts);
    return facts;
}

} // namespace rock::cfg
