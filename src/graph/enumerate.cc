#include "graph/enumerate.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "support/error.h"

namespace rock::graph {

namespace {

/** Cut searches on this thread (thread_enumerate_cuts()). */
thread_local EnumerateCuts tls_cuts;

/** In-edge candidate for one node during enumeration. */
struct Candidate {
    int src = -1; ///< -1 encodes "become a root" (super-root edge)
    double weight = 0.0;
};

/** A node's change of candidate: (node, position in its list). */
using Change = std::pair<int, int>;

/** The search's tolerance on top of epsilon. */
constexpr double kTol = 1e-12;

class Enumerator {
  public:
    Enumerator(const Digraph& graph, const EnumerateConfig& config)
        : config_(config), n_(graph.num_nodes())
    {
        penalty_ = graph.total_abs_weight() + 1.0;
        candidates_.resize(idx(n_));
        for (int v = 0; v < n_; ++v)
            candidates_[idx(v)].push_back(Candidate{-1, penalty_});
        for (const auto& e : graph.edges()) {
            candidates_[idx(e.dst)].push_back(
                Candidate{e.src, e.weight});
        }
        // Cheapest first: the order forests come out in.
        for (auto& list : candidates_) {
            std::stable_sort(list.begin(), list.end(),
                             [](const Candidate& a, const Candidate& b) {
                                 return a.weight < b.weight;
                             });
        }
        // suffix_min_[v] = sum of the cheapest candidate of every node
        // >= v: the bound of the admission test (admissible()).
        suffix_min_.assign(idx(n_) + 1, 0.0);
        for (int v = n_ - 1; v >= 0; --v) {
            suffix_min_[idx(v)] = suffix_min_[idx(v) + 1] +
                                  candidates_[idx(v)].front().weight;
        }
    }

    std::vector<Arborescence>
    run()
    {
        // One Edmonds solve, over the candidates in list order, gives
        // the optimum (the first result and the first witness) and
        // every candidate's reduced weight.
        Digraph original(n_);
        for (int v = 0; v < n_; ++v) {
            for (const Candidate& c : candidates_[idx(v)]) {
                if (c.src >= 0)
                    original.add_edge(c.src, v, c.weight);
            }
        }
        ForestCertificate cert = certify_min_forest(original);
        limit_ = cost_of(cert.forest) + config_.epsilon + kTol;

        // Tight candidates: no other candidate is in a result.
        const double slack = tight_bound(original, cert, config_.epsilon);
        const std::size_t num_real = original.edges().size();
        witness_.assign(idx(n_), -1);
        tight_.resize(idx(n_));
        int e = 0; // original's edges come in candidate order
        for (int v = 0; v < n_; ++v) {
            const auto& list = candidates_[idx(v)];
            for (int pos = 0; pos < static_cast<int>(list.size()); ++pos) {
                const bool root = list[idx(pos)].src < 0;
                const int edge = root ? -1 : e++;
                const double rc = root ? cert.reduced[num_real + idx(v)]
                                       : cert.reduced[idx(edge)];
                if (edge == cert.in_edge[idx(v)])
                    witness_[idx(v)] = pos;
                if (rc <= slack || witness_[idx(v)] == pos)
                    tight_[idx(v)].push_back(pos);
            }
        }

        results_.push_back(std::move(cert.forest));
        dfs(0, 0.0);

        // The optimum stays first; the rest sort by cost, stably, so
        // ties keep their search order.
        std::stable_sort(results_.begin() + 1, results_.end(),
                         [this](const Arborescence& a,
                                const Arborescence& b) {
                             return cost_of(a) < cost_of(b);
                         });
        return std::move(results_);
    }

  private:
    static std::size_t
    idx(int i)
    {
        return static_cast<std::size_t>(i);
    }

    double
    cost_of(const Arborescence& arb) const
    {
        return arb.weight +
               penalty_ * static_cast<double>(arb.num_roots);
    }

    const Candidate&
    cand(int v, int pos) const
    {
        return candidates_[idx(v)][idx(pos)];
    }

    /**
     * The search's admission test, the DFS's bound check at every node
     * from @p v on: the node-order sum up to each node plus the
     * cheapest candidates of the rest stays within limit_. @p v takes
     * candidate @p pos, later nodes take @p rest's; @p cost sums the
     * nodes before @p v.
     */
    bool
    admissible(int v, int pos, double cost, const std::vector<int>& rest) const
    {
        double c = cost + cand(v, pos).weight;
        if (c + suffix_min_[idx(v) + 1] > limit_)
            return false;
        for (int k = v + 1; k < n_; ++k) {
            c += cand(k, rest[idx(k)]).weight;
            if (c + suffix_min_[idx(k) + 1] > limit_)
                return false;
        }
        return true;
    }

    /** Does node @p k keep one candidate in every completion at node
     *  @p v: fixed before it, or with a single tight candidate? */
    bool
    forced(int v, int k) const
    {
        return k < v || tight_[idx(k)].size() == 1;
    }

    /**
     * Is there an admissible forest that agrees with the witness on
     * nodes < @p v and gives @p v candidate @p pos? If so, fill
     * @p changes with the nodes where the one found differs from the
     * witness. First try swapping @p pos into the witness; otherwise
     * solve the tight graph with nodes <= v fixed.
     */
    bool
    complete(int v, int pos, double cost, std::vector<Change>& changes)
    {
        changes.clear();
        // Walk up the witness from the candidate's parent. Reaching v
        // closes a cycle, so the swap fails; when every node on the
        // way is forced (and so follows the witness in any
        // completion), every completion fails too.
        bool cycle = false;
        bool all_forced = true;
        for (int u = cand(v, pos).src; u >= 0 && !cycle;
             u = cand(u, witness_[idx(u)]).src) {
            cycle = u == v;
            all_forced = all_forced && (cycle || forced(v, u));
        }
        if (cycle && all_forced)
            return false;
        if (!cycle && admissible(v, pos, cost, witness_)) {
            changes.emplace_back(v, pos);
            return true;
        }
        auto alt = solve_completion(v, pos);
        if (!alt || !admissible(v, pos, cost, *alt))
            return false;
        for (int k = v; k < n_; ++k) {
            if ((*alt)[idx(k)] != witness_[idx(k)])
                changes.emplace_back(k, (*alt)[idx(k)]);
        }
        return true;
    }

    /**
     * The cheapest forest over tight candidates in which nodes < v keep
     * the witness's candidate and @p v takes @p pos, or nullopt when
     * none exists. Every node with one choice left -- fixed, or with a
     * single tight candidate -- is contracted into its parent's group,
     * so Edmonds runs only over the nodes that still choose.
     */
    std::optional<std::vector<int>>
    solve_completion(int v, int pos) const
    {
        std::vector<int> fixed(idx(n_), -1);
        for (int k = 0; k < n_; ++k) {
            if (k == v)
                fixed[idx(k)] = pos;
            else if (forced(v, k))
                fixed[idx(k)] = k < v ? witness_[idx(k)]
                                      : tight_[idx(k)].front();
        }
        // top[k]: the head of k's forced chain, a node that still
        // chooses or a forced root.
        constexpr int kUnseen = -1;
        constexpr int kOnPath = -2;
        std::vector<int> top(idx(n_), kUnseen);
        std::vector<int> path;
        for (int k = 0; k < n_; ++k) {
            path.clear();
            int u = k;
            while (top[idx(u)] == kUnseen) {
                const int f = fixed[idx(u)];
                if (f < 0 || cand(u, f).src < 0) {
                    top[idx(u)] = u;
                    break;
                }
                top[idx(u)] = kOnPath;
                path.push_back(u);
                u = cand(u, f).src;
            }
            if (top[idx(u)] == kOnPath)
                return std::nullopt; // the forced edges close a cycle
            for (int w : path)
                top[idx(w)] = top[idx(u)];
        }

        std::vector<int> id(idx(n_), -1);
        int m = 0;
        for (int k = 0; k < n_; ++k) {
            if (top[idx(k)] == k)
                id[idx(k)] = m++;
        }
        // One edge per (group, node), so that the parent vector names
        // it: the first of a node's candidates from a group is its
        // cheapest, and a completion never needs a dearer parallel
        // edge.
        Digraph contracted(m + 1); // super-root m
        std::vector<Change> edge_of;
        std::vector<int> seen(idx(m) + 1, -1);
        for (int k = 0; k < n_; ++k) {
            if (top[idx(k)] != k)
                continue;
            if (fixed[idx(k)] >= 0) { // a forced root
                contracted.add_edge(m, id[idx(k)], penalty_);
                edge_of.emplace_back(k, fixed[idx(k)]);
                continue;
            }
            for (int p : tight_[idx(k)]) {
                const int s = cand(k, p).src;
                if (s >= 0 && top[idx(s)] == k)
                    continue; // inside k's own group
                const int g = s < 0 ? m : id[idx(top[idx(s)])];
                if (seen[idx(g)] == k)
                    continue;
                seen[idx(g)] = k;
                contracted.add_edge(g, id[idx(k)], cand(k, p).weight);
                edge_of.emplace_back(k, p);
            }
        }
        const auto picked = min_arborescence(contracted, m);
        if (!picked)
            return std::nullopt;
        // Map each group's chosen parent group back to its candidate.
        std::vector<int> alt = std::move(fixed);
        for (std::size_t i = 0; i < contracted.edges().size(); ++i) {
            const Edge& e = contracted.edges()[i];
            if (picked->parent[idx(e.dst)] == e.src)
                alt[idx(edge_of[i].first)] = edge_of[i].second;
        }
        return alt;
    }

    /**
     * Visit node @p v's tight candidates in list order, entering only
     * those with an admissible completion, so that every entered branch
     * yields a forest. The witness agrees with the current choices on
     * nodes < v; its own candidate needs no check.
     */
    void
    dfs(int v, double cost)
    {
        if (v == n_) {
            emit(cost);
            return;
        }
        std::vector<Change> changes;
        for (int pos : tight_[idx(v)]) {
            if (static_cast<int>(results_.size()) >= config_.max_results)
                return;
            const double next = cost + cand(v, pos).weight;
            if (next + suffix_min_[idx(v) + 1] > limit_)
                break; // the search's bound; later candidates cost more
            if (pos == witness_[idx(v)]) {
                dfs(v + 1, next);
                continue;
            }
            if (!complete(v, pos, cost, changes))
                continue;
            const std::size_t mark = undo_.size();
            for (const auto& [k, p] : changes) {
                undo_.emplace_back(k, witness_[idx(k)]);
                witness_[idx(k)] = p;
            }
            dfs(v + 1, next);
            for (; undo_.size() > mark; undo_.pop_back())
                witness_[idx(undo_.back().first)] = undo_.back().second;
        }
    }

    /** The witness is a complete forest: keep it unless it is the
     *  optimum, already first. */
    void
    emit(double cost)
    {
        Arborescence arb;
        arb.parent.assign(idx(n_), -1);
        for (int u = 0; u < n_; ++u) {
            const int p = cand(u, witness_[idx(u)]).src;
            if (p >= 0)
                arb.parent[idx(u)] = p;
            else
                ++arb.num_roots;
        }
        if (arb.parent == results_.front().parent)
            return;
        arb.weight = cost - penalty_ * static_cast<double>(arb.num_roots);
        results_.push_back(std::move(arb));
    }

    const EnumerateConfig config_;
    int n_;
    double penalty_ = 0.0;
    double limit_ = std::numeric_limits<double>::infinity();
    std::vector<std::vector<Candidate>> candidates_;
    std::vector<double> suffix_min_;
    std::vector<std::vector<int>> tight_;
    std::vector<int> witness_;
    std::vector<Change> undo_;
    std::vector<Arborescence> results_;
};

} // namespace

double
tight_bound(const Digraph& graph, const ForestCertificate& cert,
            double epsilon)
{
    // How far rounding can move a reduced weight against the exact cost
    // gap it certifies. With u the unit roundoff, P the penalty, W the
    // largest |weight| and limit = opt + epsilon + kTol:
    //  - a forest the search admits sums to at most limit in node
    //    order, n terms whose magnitudes add up to at most
    //    |limit| + 2P, so its exact cost is within n u (|limit| + 2P)
    //    of that; the optimum's sum, and the few operations that form
    //    limit, err as much again;
    //  - a reduced weight is at most levels + 1 subtractions; a real
    //    edge's values stay within 2W, a root edge's within 2P, and a
    //    forest has n edges, at most |limit| / P + 2 of them roots;
    //    the forest's and the optimum's both count.
    // The result is twice the first-order total.
    const Arborescence& opt = cert.forest;
    const double p = cert.penalty;
    double w = 0.0;
    for (const Edge& e : graph.edges())
        w = std::max(w, std::fabs(e.weight));
    const double limit = std::fabs(
        opt.weight + p * static_cast<double>(opt.num_roots) + epsilon +
        kTol);
    const double n = static_cast<double>(graph.num_nodes());
    const double levels = static_cast<double>(cert.levels);
    return epsilon + kTol +
           DBL_EPSILON * ((2.0 * n + 8.0) * (limit + 2.0 * p) +
                          4.0 * (levels + 1.0) *
                              (n * w + limit + 2.0 * p));
}

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
    tls_cuts.results +=
        static_cast<int>(results.size()) >= config.max_results ? 1 : 0;
    return results;
}

EnumerateCuts
thread_enumerate_cuts()
{
    return tls_cuts;
}

} // namespace rock::graph
