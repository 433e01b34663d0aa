#include "slm/ppm.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/error.h"

namespace rock::slm {

namespace {

/** Escapes taken on this thread (thread_escape_tally()). The count
 *  is a pure function of (model, query), so a family's total is the
 *  same at every thread count. */
thread_local std::uint64_t tls_escape_tally = 0;

} // namespace

std::uint64_t
thread_escape_tally()
{
    return tls_escape_tally;
}

void
PpmModel::adopt_trie(ContextTrie trie)
{
    ROCK_ASSERT(trie.depth() == trie_.depth(),
                "trie snapshot depth mismatch");
    trie_ = std::move(trie);
    finalized_ = false;
}

void
PpmModel::train(const std::vector<int>& seq)
{
    for (int symbol : seq) {
        ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                    "symbol outside alphabet");
    }
    trie_.add_sequence(seq);
    finalized_ = false;
}

void
PpmModel::finalize()
{
    if (finalized_)
        return;
    const std::size_t nodes = trie_.node_count();
    prob_offset_.assign(nodes + 1, 0);
    escape_p_.assign(nodes, 0.0);
    prob_vals_.clear();

    for (std::size_t id = 0; id < nodes; ++id) {
        auto node = static_cast<ContextTrie::NodeId>(id);
        prob_offset_[id] =
            static_cast<std::uint32_t>(prob_vals_.size());
        const auto& entries = trie_.counts(node);
        long total = trie_.total(node);
        long distinct = static_cast<long>(entries.size());
        if (total <= 0 || distinct <= 0)
            continue; // query path skips the node entirely
        bool covers = distinct >= static_cast<long>(alphabet_size_);
        double n = static_cast<double>(total);
        double q = static_cast<double>(distinct);
        escape_p_[id] = covers ? 0.0 : q / (n + q);
        for (const auto& [symbol, count] : entries) {
            (void)symbol;
            double c = static_cast<double>(count);
            prob_vals_.push_back(covers ? c / n : c / (n + q));
        }
    }
    prob_offset_[nodes] =
        static_cast<std::uint32_t>(prob_vals_.size());
    finalized_ = true;
}

double
PpmModel::prob(int symbol, const std::vector<int>& context) const
{
    ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                "symbol outside alphabet");
    if (!finalized_ || exclusion_)
        return general_prob(symbol, context);
    std::vector<ContextTrie::NodeId> chain;
    trie_.context_chain(context, chain);
    return chain_prob(symbol, chain);
}

double
PpmModel::sequence_log_prob(const std::vector<int>& seq) const
{
    if (!finalized_ || exclusion_)
        return LanguageModel::sequence_log_prob(seq);
    thread_local std::vector<ContextTrie::NodeId> chain;
    double log_p = 0.0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const int symbol = seq[i];
        ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                    "symbol outside alphabet");
        chain.clear();
        trie_.context_chain(std::span<const int>(seq.data(), i), chain);
        double p = chain_prob(symbol, chain);
        ROCK_ASSERT(p > 0.0, "model returned non-positive probability");
        log_p += std::log(p);
    }
    return log_p;
}

double
PpmModel::chain_prob(int symbol,
                     const std::vector<ContextTrie::NodeId>& chain) const
{
    // Precomputed per-context probability vectors: walk from the
    // deepest matched context toward the root, multiplying escape
    // probabilities until the symbol is found.
    double escape_acc = 1.0;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        ContextTrie::NodeId node = *it;
        if (trie_.total(node) <= 0)
            continue; // nothing usable at this order
        const auto& entries = trie_.counts(node);
        auto found = std::lower_bound(
            entries.begin(), entries.end(), symbol,
            [](const auto& entry, int k) { return entry.first < k; });
        if (found != entries.end() && found->first == symbol) {
            std::size_t slot =
                prob_offset_[static_cast<std::size_t>(node)] +
                static_cast<std::size_t>(found - entries.begin());
            return escape_acc * prob_vals_[slot];
        }
        ++tls_escape_tally;
        escape_acc *= escape_p_[static_cast<std::size_t>(node)];
    }
    return escape_acc / static_cast<double>(alphabet_size_);
}

double
PpmModel::general_prob(int symbol,
                       const std::vector<int>& context) const
{
    std::vector<ContextTrie::NodeId> chain;
    trie_.context_chain(context, chain);

    double escape_acc = 1.0;
    std::set<int> excluded;

    // Walk from the deepest matched context down to order 0.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        ContextTrie::NodeId node = *it;

        long total = trie_.total(node);
        long distinct = static_cast<long>(trie_.distinct(node));
        if (exclusion_ && !excluded.empty()) {
            for (int ex : excluded) {
                int c = trie_.count_of(node, ex);
                if (c > 0) {
                    total -= c;
                    --distinct;
                }
            }
        }
        if (total <= 0 || distinct <= 0) {
            // Nothing usable at this order once exclusions apply.
            continue;
        }

        // When the context has already seen every symbol still in
        // play, there is nothing to escape to: drop the escape
        // reservation so the conditional distribution stays proper.
        long remaining = alphabet_size_;
        if (exclusion_)
            remaining -= static_cast<long>(excluded.size());
        bool covers = distinct >= remaining;

        int raw_count = trie_.count_of(node, symbol);
        bool usable = raw_count > 0 &&
                      (!exclusion_ || !excluded.count(symbol));

        // Method C (Moffat): the escape takes q of n + q counts.
        double n = static_cast<double>(total);
        double q = static_cast<double>(distinct);
        if (usable) {
            double count = static_cast<double>(raw_count);
            return escape_acc * (covers ? count / n : count / (n + q));
        }
        ++tls_escape_tally;
        escape_acc *= covers ? 0.0 : q / (n + q);
        if (exclusion_) {
            for (const auto& [seen, seen_count] : trie_.counts(node)) {
                (void)seen_count;
                excluded.insert(seen);
            }
        }
    }

    // Order -1: uniform over the (non-excluded) alphabet.
    long remaining = alphabet_size_;
    if (exclusion_)
        remaining -= static_cast<long>(excluded.size());
    ROCK_ASSERT(remaining > 0, "exclusion removed the whole alphabet");
    return escape_acc / static_cast<double>(remaining);
}

} // namespace rock::slm
