#include "graph/enumerate.h"

#include <algorithm>
#include <limits>

#include "support/error.h"

namespace rock::graph {

namespace {

/** In-edge candidate for one node during enumeration. */
struct Candidate {
    int src = -1; ///< -1 encodes "become a root" (super-root edge)
    double weight = 0.0;
};

class Enumerator {
  public:
    Enumerator(const Digraph& graph, const EnumerateConfig& config)
        : config_(config), n_(graph.num_nodes())
    {
        penalty_ = graph.total_abs_weight() + 1.0;
        candidates_.resize(static_cast<std::size_t>(n_));
        for (int v = 0; v < n_; ++v) {
            candidates_[static_cast<std::size_t>(v)].push_back(
                Candidate{-1, penalty_});
        }
        for (const auto& e : graph.edges()) {
            candidates_[static_cast<std::size_t>(e.dst)].push_back(
                Candidate{e.src, e.weight});
        }
        // Cheapest-first gives better pruning and makes the optimum
        // appear early.
        for (auto& list : candidates_) {
            std::stable_sort(list.begin(), list.end(),
                             [](const Candidate& a, const Candidate& b) {
                                 return a.weight < b.weight;
                             });
        }
        // suffix_min_[v] = sum of the cheapest candidate of every node
        // >= v: the admissible lower bound used while pruning.
        suffix_min_.assign(static_cast<std::size_t>(n_) + 1, 0.0);
        for (int v = n_ - 1; v >= 0; --v) {
            suffix_min_[static_cast<std::size_t>(v)] =
                suffix_min_[static_cast<std::size_t>(v) + 1] +
                candidates_[static_cast<std::size_t>(v)].front().weight;
        }
    }

    std::vector<Arborescence>
    run()
    {
        // Establish the optimal cost with Edmonds; the DFS then keeps
        // everything within epsilon of it. Seeding the result set
        // with the optimum guarantees it survives even when the step
        // budget cuts the search short.
        Digraph original(n_);
        for (int v = 0; v < n_; ++v) {
            for (const auto& cand :
                 candidates_[static_cast<std::size_t>(v)]) {
                if (cand.src >= 0)
                    original.add_edge(cand.src, v, cand.weight);
            }
        }
        Arborescence best = min_forest(original);
        best_cost_ = best.weight +
                     penalty_ * static_cast<double>(best.num_roots);
        seed_ = best.parent;
        results_.push_back(std::move(best));

        parent_.assign(static_cast<std::size_t>(n_), -2);
        dfs(0, 0.0);

        // Put the optimum first (dfs order is by candidate rank, which
        // already favors cheap assignments, but make it explicit).
        std::stable_sort(results_.begin(), results_.end(),
                         [this](const Arborescence& a,
                                const Arborescence& b) {
                             return cost_of(a) < cost_of(b);
                         });
        return std::move(results_);
    }

  private:
    double
    cost_of(const Arborescence& arb) const
    {
        return arb.weight +
               penalty_ * static_cast<double>(arb.num_roots);
    }

    /** Does assigning parent p to node v close a cycle? */
    bool
    creates_cycle(int v, int p) const
    {
        int cur = p;
        while (cur >= 0) {
            if (cur == v)
                return true;
            cur = parent_[static_cast<std::size_t>(cur)];
            if (cur == -2)
                break; // unassigned ancestor: cannot close a cycle yet
        }
        return false;
    }

    // Starts on a cache line: this search is the hot loop of the
    // Table-2 corpus, and where it lands mod 64 moves its speed. Placed
    // at 32 mod 64 by unrelated code growth elsewhere in a binary, it
    // ran 20-30% slower than at 0 mod 64 (Intel Xeon, 4 cores).
    [[gnu::aligned(64)]] void
    dfs(int v, double cost)
    {
        if (static_cast<int>(results_.size()) >= config_.max_results ||
            ++steps_ > config_.max_steps) {
            return;
        }
        if (v == n_) {
            Arborescence arb;
            arb.parent.assign(static_cast<std::size_t>(n_), -1);
            for (int u = 0; u < n_; ++u) {
                int p = parent_[static_cast<std::size_t>(u)];
                if (p >= 0) {
                    arb.parent[static_cast<std::size_t>(u)] = p;
                    // weight of the chosen candidate accumulated below
                } else {
                    ++arb.num_roots;
                }
            }
            if (arb.parent == seed_)
                return; // already present from the Edmonds seed
            arb.weight =
                cost - penalty_ * static_cast<double>(arb.num_roots);
            results_.push_back(std::move(arb));
            return;
        }
        // Lower bound for the remaining nodes.
        double bound = suffix_min_[static_cast<std::size_t>(v) + 1];
        for (const auto& cand :
             candidates_[static_cast<std::size_t>(v)]) {
            double new_cost = cost + cand.weight;
            if (new_cost + bound >
                best_cost_ + config_.epsilon + kTol) {
                break; // candidates are sorted; the rest only get worse
            }
            if (cand.src >= 0 && creates_cycle(v, cand.src))
                continue;
            parent_[static_cast<std::size_t>(v)] = cand.src;
            dfs(v + 1, new_cost);
            parent_[static_cast<std::size_t>(v)] = -2;
        }
    }

    static constexpr double kTol = 1e-12;

    const EnumerateConfig config_;
    int n_;
    double penalty_ = 0.0;
    double best_cost_ = std::numeric_limits<double>::infinity();
    std::vector<std::vector<Candidate>> candidates_;
    std::vector<double> suffix_min_;
    std::vector<int> parent_;
    std::vector<int> seed_;
    long steps_ = 0;
    std::vector<Arborescence> results_;
};

} // namespace

std::vector<Arborescence>
enumerate_min_forests(const Digraph& graph,
                      const EnumerateConfig& config)
{
    if (graph.num_nodes() == 0)
        return {Arborescence{}};
    Enumerator e(graph, config);
    auto results = e.run();
    ROCK_ASSERT(!results.empty(),
                "enumeration must find at least the optimum");
    return results;
}

} // namespace rock::graph
