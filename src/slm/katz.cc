#include "slm/katz.h"

#include <algorithm>

#include "support/error.h"

namespace rock::slm {

void
KatzModel::train(const std::vector<int>& seq)
{
    for (int symbol : seq) {
        ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                    "symbol outside alphabet");
    }
    trie_.add_sequence(seq);
    coc_valid_ = false;
}

void
KatzModel::adopt_trie(ContextTrie trie)
{
    ROCK_ASSERT(trie.depth() == trie_.depth(),
                "trie snapshot depth mismatch");
    trie_ = std::move(trie);
    coc_valid_ = false;
}

void
KatzModel::finalize()
{
    if (coc_valid_)
        return;
    coc_ = trie_.count_of_counts();
    coc_valid_ = true;
}

double
KatzModel::discount(int order, int r) const
{
    if (r > kThreshold)
        return 1.0;
    const auto& table = coc_[static_cast<std::size_t>(order)];
    auto lookup = [&table](int key) -> long {
        auto it = std::lower_bound(
            table.begin(), table.end(), key,
            [](const auto& entry, int k) { return entry.first < k; });
        if (it == table.end() || it->first != key)
            return 0;
        return it->second;
    };
    long nr = lookup(r);
    long nr1 = lookup(r + 1);
    if (nr == 0 || nr1 == 0)
        return 1.0;
    double r_star = static_cast<double>(r + 1) *
                    static_cast<double>(nr1) /
                    static_cast<double>(nr);
    double d = r_star / static_cast<double>(r);
    // Keep the discount sane: it must remove mass, not add it, and
    // must not zero out observed events.
    if (d <= 0.0 || d >= 1.0)
        return 1.0;
    return d;
}

double
KatzModel::prob_at(const std::vector<ContextTrie::NodeId>& chain,
                   std::size_t level, int symbol) const
{
    if (level >= chain.size()) {
        // Below order 0: uniform.
        return 1.0 / static_cast<double>(alphabet_size_);
    }
    ContextTrie::NodeId node = chain[level];
    // chain is deepest-first; the node's trie order is its distance
    // from the root end of the chain.
    int order = static_cast<int>(chain.size() - 1 - level);
    double total = static_cast<double>(trie_.total(node));

    int raw = trie_.count_of(node, symbol);
    if (raw > 0) {
        double d = discount(order, raw);
        return d * static_cast<double>(raw) / total;
    }

    // Leftover mass after discounting the seen successors.
    double seen_mass = 0.0;
    double lower_seen = 0.0;
    for (const auto& [sym, count] : trie_.counts(node)) {
        seen_mass += discount(order, count) *
                     static_cast<double>(count) / total;
        lower_seen += prob_at(chain, level + 1, sym);
    }
    double leftover = 1.0 - seen_mass;
    if (leftover <= 0.0)
        leftover = 1e-12;
    double lower_unseen = 1.0 - lower_seen;
    if (lower_unseen <= 1e-12)
        lower_unseen = 1e-12;
    double alpha = leftover / lower_unseen;
    return alpha * prob_at(chain, level + 1, symbol);
}

double
KatzModel::prob(int symbol, const std::vector<int>& context) const
{
    ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                "symbol outside alphabet");
    if (!coc_valid_) {
        coc_ = trie_.count_of_counts();
        coc_valid_ = true;
    }
    std::vector<ContextTrie::NodeId> chain;
    trie_.context_chain(context, chain);
    // Evaluate from the deepest matched context; prob_at walks toward
    // the root on back-off, so reverse the chain (deepest first).
    std::vector<ContextTrie::NodeId> reversed(chain.rbegin(),
                                              chain.rend());
    return prob_at(reversed, 0, symbol);
}

} // namespace rock::slm
