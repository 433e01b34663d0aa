#include "graph/ambiguity.h"

#include <algorithm>

#include "support/error.h"

namespace rock::graph {

namespace {

std::size_t
idx(int i)
{
    return static_cast<std::size_t>(i);
}

/** Compressed adjacency: node v's neighbours are
 *  targets[begin[v] .. begin[v + 1]), in edge order. */
struct Adjacency {
    std::vector<int> begin;
    std::vector<int> targets;

    /** Successors, or with @p reverse predecessors, of @p n nodes;
     *  self-loops dropped. */
    static Adjacency
    build(int n, const std::vector<std::pair<int, int>>& edges,
          bool reverse)
    {
        Adjacency adj;
        adj.begin.assign(idx(n) + 1, 0);
        for (const auto& [src, dst] : edges) {
            if (src != dst)
                ++adj.begin[idx(reverse ? dst : src) + 1];
        }
        for (int v = 0; v < n; ++v)
            adj.begin[idx(v) + 1] += adj.begin[idx(v)];
        adj.targets.resize(idx(adj.begin[idx(n)]));
        std::vector<int> fill(adj.begin.begin(), adj.begin.end() - 1);
        for (const auto& [src, dst] : edges) {
            if (src != dst) {
                const int from = reverse ? dst : src;
                adj.targets[idx(fill[idx(from)]++)] = reverse ? src : dst;
            }
        }
        return adj;
    }

    int first(int v) const { return begin[idx(v)]; }
    int last(int v) const { return begin[idx(v) + 1]; }
};

/** Tarjan's strongly connected components, iterative so that long
 *  chains cannot overflow the stack. Returns a component id per node. */
std::vector<int>
strong_components(const Adjacency& succ, int n)
{
    std::vector<int> comp(idx(n), -1);
    std::vector<int> index(idx(n), -1);
    std::vector<int> low(idx(n), 0);
    std::vector<int> stack;
    std::vector<std::pair<int, int>> frames; // (node, next successor)
    int counter = 0;
    int num = 0;
    auto open = [&](int v) {
        index[idx(v)] = low[idx(v)] = counter++;
        stack.push_back(v);
        frames.emplace_back(v, succ.first(v));
    };
    for (int s = 0; s < n; ++s) {
        if (index[idx(s)] >= 0)
            continue;
        open(s);
        while (!frames.empty()) {
            const int v = frames.back().first;
            if (frames.back().second < succ.last(v)) {
                const int w = succ.targets[idx(frames.back().second++)];
                if (index[idx(w)] < 0)
                    open(w);
                else if (comp[idx(w)] < 0) // still on the stack
                    low[idx(v)] = std::min(low[idx(v)], index[idx(w)]);
                continue;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const int parent = frames.back().first;
                low[idx(parent)] = std::min(low[idx(parent)], low[idx(v)]);
            }
            if (low[idx(v)] == index[idx(v)]) {
                int w = -1;
                do {
                    w = stack.back();
                    stack.pop_back();
                    comp[idx(w)] = num;
                } while (w != v);
                ++num;
            }
        }
    }
    return comp;
}

/**
 * Immediate dominators (Cooper-Harvey-Kennedy: iterate over reverse
 * postorder, intersecting along the dominator tree, to a fixpoint) of
 * nodes 0..n-1 under a virtual entry n whose successors are
 * @p roots. Every node must be reachable from @p roots; roots must
 * have no predecessors. idom[n] == n.
 */
std::vector<int>
dominators(const Adjacency& succ, const Adjacency& pred,
           const std::vector<int>& roots, int n)
{
    const int entry = n;
    auto out_degree = [&](int v) {
        return v == entry ? static_cast<int>(roots.size())
                          : succ.last(v) - succ.first(v);
    };
    auto successor = [&](int v, int k) {
        return v == entry ? roots[idx(k)]
                          : succ.targets[idx(succ.first(v) + k)];
    };

    std::vector<int> order;
    order.reserve(idx(n) + 1);
    std::vector<char> seen(idx(n) + 1, 0);
    std::vector<std::pair<int, int>> stack{{entry, 0}};
    seen[idx(entry)] = 1;
    while (!stack.empty()) {
        const auto [v, k] = stack.back();
        if (k < out_degree(v)) {
            ++stack.back().second;
            const int w = successor(v, k);
            if (!seen[idx(w)]) {
                seen[idx(w)] = 1;
                stack.emplace_back(w, 0);
            }
        } else {
            order.push_back(v);
            stack.pop_back();
        }
    }
    ROCK_ASSERT(order.size() == idx(n) + 1,
                "every node must be reachable from a root");
    std::reverse(order.begin(), order.end());
    std::vector<int> rpo_index(idx(n) + 1, 0);
    for (std::size_t i = 0; i < order.size(); ++i)
        rpo_index[idx(order[i])] = static_cast<int>(i);

    std::vector<int> idom(idx(n) + 1, -1);
    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpo_index[idx(a)] > rpo_index[idx(b)])
                a = idom[idx(a)];
            while (rpo_index[idx(b)] > rpo_index[idx(a)])
                b = idom[idx(b)];
        }
        return a;
    };

    idom[idx(entry)] = entry;
    for (int r : roots)
        idom[idx(r)] = entry;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : order) {
            if (b == entry)
                continue; // roots have no predecessors: settled too
            int new_idom = -1;
            for (int i = pred.first(b); i < pred.last(b); ++i) {
                const int p = pred.targets[idx(i)];
                if (idom[idx(p)] < 0)
                    continue; // not yet processed
                new_idom = new_idom < 0 ? p : intersect(p, new_idom);
            }
            if (new_idom >= 0 && idom[idx(b)] != new_idom) {
                idom[idx(b)] = new_idom;
                changed = true;
            }
        }
    }
    return idom;
}

/** Pre/post visit numbers of a DFS over the dominator tree @p idom
 *  rooted at @p entry: a dominates b iff a's interval holds b's. */
struct DomIntervals {
    std::vector<int> pre;
    std::vector<int> post;

    DomIntervals(const std::vector<int>& idom, int entry)
        : pre(idom.size(), 0), post(idom.size(), 0)
    {
        const int count = static_cast<int>(idom.size());
        std::vector<std::pair<int, int>> tree;
        tree.reserve(idom.size());
        for (int v = 0; v < count; ++v) {
            if (v != entry)
                tree.emplace_back(idom[idx(v)], v);
        }
        const Adjacency children = Adjacency::build(count, tree, false);

        int clock = 0;
        std::vector<std::pair<int, int>> stack{
            {entry, children.first(entry)}};
        pre[idx(entry)] = clock++;
        while (!stack.empty()) {
            const auto [v, next] = stack.back();
            if (next < children.last(v)) {
                ++stack.back().second;
                const int c = children.targets[idx(next)];
                pre[idx(c)] = clock++;
                stack.emplace_back(c, children.first(c));
            } else {
                post[idx(v)] = clock++;
                stack.pop_back();
            }
        }
    }

    bool
    dominates(int a, int b) const
    {
        return pre[idx(a)] <= pre[idx(b)] && post[idx(b)] <= post[idx(a)];
    }
};

} // namespace

bool
has_multiple_min_forests(int n,
                         const std::vector<std::pair<int, int>>& edges)
{
    for (const auto& [src, dst] : edges) {
        ROCK_ASSERT(src >= 0 && src < n && dst >= 0 && dst < n,
                    "edge endpoint out of range");
    }
    const Adjacency succ = Adjacency::build(n, edges, false);
    const Adjacency pred = Adjacency::build(n, edges, true);

    // Each source SCC holds exactly one root of every min-root
    // forest; with two or more members, any of them can be it.
    const std::vector<int> comp = strong_components(succ, n);
    const int num_comps =
        n == 0 ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;
    std::vector<int> comp_size(idx(num_comps), 0);
    std::vector<char> comp_entered(idx(num_comps), 0);
    for (int v = 0; v < n; ++v)
        ++comp_size[idx(comp[idx(v)])];
    for (const auto& [src, dst] : edges) {
        if (comp[idx(src)] != comp[idx(dst)])
            comp_entered[idx(comp[idx(dst)])] = 1;
    }
    std::vector<int> roots;
    for (int v = 0; v < n; ++v) {
        const int c = comp[idx(v)];
        if (comp_entered[idx(c)])
            continue;
        if (comp_size[idx(c)] >= 2)
            return true;
        roots.push_back(v);
    }

    // The roots are forced; every other node may take as parent any
    // in-neighbour it does not dominate.
    const DomIntervals dom(dominators(succ, pred, roots, n), n);
    for (int v = 0; v < n; ++v) {
        int parent = -1;
        for (int i = pred.first(v); i < pred.last(v); ++i) {
            const int u = pred.targets[idx(i)];
            if (dom.dominates(v, u))
                continue;
            if (parent < 0)
                parent = u;
            else if (u != parent)
                return true;
        }
    }
    return false;
}

} // namespace rock::graph
