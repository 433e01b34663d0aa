#include "slm/context_trie.h"

#include <algorithm>
#include <map>

namespace rock::slm {

namespace {

/** Lower bound over a sorted (key, value) small vector. */
template <typename Vec>
auto
find_key(Vec& vec, int key)
{
    return std::lower_bound(
        vec.begin(), vec.end(), key,
        [](const auto& entry, int k) { return entry.first < k; });
}

} // namespace

int&
ContextTrie::count_slot(NodeId node, int symbol)
{
    auto& counts = nodes_[static_cast<std::size_t>(node)].counts;
    auto it = find_key(counts, symbol);
    if (it == counts.end() || it->first != symbol)
        it = counts.insert(it, {symbol, 0});
    return it->second;
}

ContextTrie::NodeId
ContextTrie::child_or_create(NodeId node, int symbol)
{
    // Note: taking the children reference *after* any arena growth --
    // allocating the child first would invalidate it.
    {
        auto& children =
            nodes_[static_cast<std::size_t>(node)].children;
        auto it = find_key(children, symbol);
        if (it != children.end() && it->first == symbol)
            return it->second;
    }
    NodeId fresh = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
    totals_.push_back(0);
    auto& children = nodes_[static_cast<std::size_t>(node)].children;
    auto it = find_key(children, symbol);
    children.insert(it, {symbol, fresh});
    return fresh;
}

void
ContextTrie::add_sequence(const std::vector<int>& seq)
{
    for (std::size_t i = 0; i < seq.size(); ++i) {
        int symbol = seq[i];
        // Update the root (order 0) and every context of length
        // 1..depth ending just before position i.
        NodeId node = kRoot;
        count_slot(node, symbol) += 1;
        totals_[static_cast<std::size_t>(node)] += 1;
        for (int k = 1; k <= depth_ && k <= static_cast<int>(i); ++k) {
            int ctx_symbol = seq[i - static_cast<std::size_t>(k)];
            node = child_or_create(node, ctx_symbol);
            count_slot(node, symbol) += 1;
            totals_[static_cast<std::size_t>(node)] += 1;
        }
    }
}

void
ContextTrie::context_chain(std::span<const int> context,
                           std::vector<NodeId>& chain) const
{
    chain.push_back(kRoot);
    NodeId node = kRoot;
    int limit = std::min<int>(depth_, static_cast<int>(context.size()));
    for (int k = 1; k <= limit; ++k) {
        int ctx_symbol =
            context[context.size() - static_cast<std::size_t>(k)];
        NodeId next = child(node, ctx_symbol);
        if (next < 0)
            break;
        node = next;
        chain.push_back(node);
    }
}

int
ContextTrie::count_of(NodeId node, int symbol) const
{
    const auto& counts = nodes_[static_cast<std::size_t>(node)].counts;
    auto it = find_key(counts, symbol);
    if (it == counts.end() || it->first != symbol)
        return 0;
    return it->second;
}

ContextTrie::NodeId
ContextTrie::child(NodeId node, int symbol) const
{
    const auto& children =
        nodes_[static_cast<std::size_t>(node)].children;
    auto it = find_key(children, symbol);
    if (it == children.end() || it->first != symbol)
        return -1;
    return it->second;
}

bool
ContextTrie::restore(
    std::vector<std::vector<std::pair<int, int>>> counts,
    std::vector<std::vector<std::pair<int, NodeId>>> children,
    std::vector<long> totals)
{
    nodes_.clear();
    totals_.clear();
    nodes_.emplace_back();
    totals_.push_back(0);

    const std::size_t n = counts.size();
    if (n == 0 || children.size() != n || totals.size() != n)
        return false;
    for (const auto& kids : children) {
        for (const auto& [symbol, kid] : kids) {
            (void)symbol;
            if (kid <= kRoot || static_cast<std::size_t>(kid) >= n)
                return false;
        }
    }

    nodes_.clear();
    nodes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        nodes_[i].counts = std::move(counts[i]);
        nodes_[i].children = std::move(children[i]);
    }
    totals_ = std::move(totals);
    return true;
}

std::vector<std::vector<std::pair<int, long>>>
ContextTrie::count_of_counts() const
{
    std::vector<std::map<int, long>> acc(
        static_cast<std::size_t>(depth_) + 1);
    auto walk = [&](auto&& self, NodeId node, int order) -> void {
        for (const auto& [symbol, count] :
             nodes_[static_cast<std::size_t>(node)].counts) {
            (void)symbol;
            acc[static_cast<std::size_t>(order)][count] += 1;
        }
        if (order < depth_) {
            for (const auto& [symbol, kid] :
                 nodes_[static_cast<std::size_t>(node)].children) {
                (void)symbol;
                self(self, kid, order + 1);
            }
        }
    };
    walk(walk, kRoot, 0);

    std::vector<std::vector<std::pair<int, long>>> result;
    result.reserve(acc.size());
    for (const auto& table : acc)
        result.emplace_back(table.begin(), table.end());
    return result;
}

} // namespace rock::slm
