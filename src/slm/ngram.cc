#include "slm/ngram.h"

#include "support/error.h"

namespace rock::slm {

void
NGramModel::train(const std::vector<int>& seq)
{
    for (int symbol : seq) {
        ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                    "symbol outside alphabet");
    }
    trie_.add_sequence(seq);
}

void
NGramModel::adopt_trie(ContextTrie trie)
{
    ROCK_ASSERT(trie.depth() == trie_.depth(),
                "trie snapshot depth mismatch");
    trie_ = std::move(trie);
}

double
NGramModel::prob(int symbol, const std::vector<int>& context) const
{
    ROCK_ASSERT(symbol >= 0 && symbol < alphabet_size_,
                "symbol outside alphabet");
    std::vector<ContextTrie::NodeId> chain;
    trie_.context_chain(context, chain);
    ContextTrie::NodeId node = chain.back();
    long count = trie_.count_of(node, symbol);
    return (static_cast<double>(count) + kAlpha) /
           (static_cast<double>(trie_.total(node)) +
            kAlpha * static_cast<double>(alphabet_size_));
}

} // namespace rock::slm
