#include "divergence/family_words.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_map>

#include "support/error.h"

namespace rock::divergence {

namespace {

/** Content hash and equality of borrowed words. */
struct WordHash {
    std::size_t operator()(const std::vector<int>* word) const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (int sym : *word)
            h = (h ^ static_cast<std::uint32_t>(sym)) * 0x100000001b3ull;
        return static_cast<std::size_t>(h);
    }
};
struct WordEq {
    bool operator()(const std::vector<int>* a,
                    const std::vector<int>* b) const
    {
        return *a == *b;
    }
};

std::atomic<std::uint64_t> next_generation{1};

/** Raw values of one filled member (an edge's parent), read at
 *  ascending word ids by a forward search of its need list. */
class MemoReader {
  public:
    MemoReader(const std::vector<std::uint32_t>& need,
               const std::vector<double>& raw)
        : need_(need), raw_(raw)
    {
    }

    double at(std::uint32_t id)
    {
        auto it = std::lower_bound(
            need_.begin() + static_cast<std::ptrdiff_t>(pos_),
            need_.end(), id);
        ROCK_ASSERT(it != need_.end() && *it == id,
                    "word missing from a member's memo");
        pos_ = static_cast<std::size_t>(it - need_.begin());
        return raw_[pos_++];
    }

  private:
    const std::vector<std::uint32_t>& need_;
    const std::vector<double>& raw_;
    std::size_t pos_ = 0;
};

} // namespace

void
FamilyWords::intern(
    const std::vector<const std::vector<std::vector<int>>*>& members,
    std::span<const std::pair<int, int>> edges)
{
    clear();
    generation_ = next_generation++;
    const std::size_t m = members.size();

    // Distinct non-empty words in order of first appearance, and each
    // member's words by that provisional index.
    std::unordered_map<const std::vector<int>*, std::uint32_t, WordHash,
                       WordEq>
        index;
    ids_.assign(m, {});
    for (std::size_t i = 0; i < m; ++i) {
        for (const auto& seq : *members[i]) {
            if (seq.empty())
                continue;
            auto [it, fresh] = index.try_emplace(
                &seq, static_cast<std::uint32_t>(vocab_.size()));
            if (fresh)
                vocab_.push_back(&seq);
            ids_[i].push_back(it->second);
        }
    }
    // The one sort: distinct words into lexicographic order, which
    // becomes the id order.
    std::vector<std::uint32_t> order(vocab_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return *vocab_[a] < *vocab_[b];
              });
    std::vector<std::uint32_t> rank(vocab_.size());
    std::vector<const std::vector<int>*> sorted(vocab_.size());
    for (std::uint32_t k = 0; k < order.size(); ++k) {
        rank[order[k]] = k;
        sorted[k] = vocab_[order[k]];
    }
    vocab_ = std::move(sorted);
    for (auto& ids : ids_) {
        for (std::uint32_t& id : ids)
            id = rank[id];
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }

    adj_offset_.assign(m + 1, 0);
    for (const auto& [p, c] : edges) {
        ++adj_offset_[static_cast<std::size_t>(p) + 1];
        ++adj_offset_[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t i = 0; i < m; ++i)
        adj_offset_[i + 1] += adj_offset_[i];
    adj_.resize(2 * edges.size());
    std::vector<std::uint32_t> next(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
    for (const auto& [p, c] : edges) {
        adj_[next[static_cast<std::size_t>(p)]++] =
            static_cast<std::uint32_t>(c);
        adj_[next[static_cast<std::size_t>(c)]++] =
            static_cast<std::uint32_t>(p);
    }
    need_.assign(m, {});
    raw_.assign(m, {});
}

void
FamilyWords::fill(std::size_t member, const slm::LanguageModel& model,
                  Scratch& scratch)
{
    const std::uint32_t first = adj_offset_[member];
    const std::uint32_t last = adj_offset_[member + 1];
    if (first == last)
        return;

    // Need list: the union of this member's ids and its neighbours',
    // deduplicated through a vocabulary-sized marker that is reset
    // before returning, so one Scratch serves any family.
    if (scratch.seen.size() < vocab_.size())
        scratch.seen.resize(vocab_.size(), 0);
    scratch.ids.clear();
    auto take = [&](std::size_t who) {
        for (std::uint32_t id : ids_[who]) {
            if (!scratch.seen[id]) {
                scratch.seen[id] = 1;
                scratch.ids.push_back(id);
            }
        }
    };
    take(member);
    for (std::uint32_t k = first; k < last; ++k)
        take(adj_[k]);
    for (std::uint32_t id : scratch.ids)
        scratch.seen[id] = 0;
    std::sort(scratch.ids.begin(), scratch.ids.end());

    need_[member].assign(scratch.ids.begin(), scratch.ids.end());
    auto& raw = raw_[member];
    raw.resize(scratch.ids.size());
    for (std::size_t k = 0; k < scratch.ids.size(); ++k)
        raw[k] = model.sequence_prob(*vocab_[scratch.ids[k]]);
}

double
FamilyWords::distance(MetricKind kind, std::size_t parent,
                      std::size_t child, Scratch& scratch) const
{
    const auto& a = ids_[parent];
    const auto& b = ids_[child];
    MemoReader from_parent(need_[parent], raw_[parent]);
    if (scratch.dense_generation != generation_ ||
        scratch.dense_member != child) {
        // Only ids of this need list are read back, so stale entries
        // of an earlier child need no reset.
        if (scratch.dense.size() < vocab_.size())
            scratch.dense.resize(vocab_.size());
        for (std::size_t k = 0; k < need_[child].size(); ++k)
            scratch.dense[need_[child][k]] = raw_[child][k];
        scratch.dense_generation = generation_;
        scratch.dense_member = child;
    }
    scratch.parent.clear();
    scratch.child.clear();
    // Ascending union of the two id lists: merge_word_sets()' order.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        std::uint32_t id;
        if (j == b.size() || (i < a.size() && a[i] < b[j])) {
            id = a[i++];
        } else if (i == a.size() || b[j] < a[i]) {
            id = b[j++];
        } else {
            id = a[i++];
            ++j;
        }
        scratch.parent.push_back(from_parent.at(id));
        scratch.child.push_back(scratch.dense[id]);
    }
    if (scratch.parent.empty())
        return 0.0;
    return raw_pair_distance(kind, scratch.parent, scratch.child);
}

void
FamilyWords::clear()
{
    *this = FamilyWords();
}

} // namespace rock::divergence
