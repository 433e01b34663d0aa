#include "divergence/family_words.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "support/error.h"

namespace rock::divergence {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

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

/** Raw values of one filled class (a key's parent), read at ascending
 *  word ids by a forward search of its need list. */
class MemoReader {
  public:
    MemoReader(const std::vector<std::uint32_t>& need,
               const std::vector<double>& raw)
        : need_(need), raw_(raw)
    {
    }

    double at(std::uint32_t id)
    {
        // Gallop from the last hit: the ids arrive ascending, usually
        // a few entries apart.
        const std::size_t n = need_.size();
        std::size_t lo = pos_;
        std::size_t hi = pos_;
        for (std::size_t step = 1; hi < n && need_[hi] < id; step *= 2) {
            lo = hi + 1;
            hi = lo + step;
        }
        const auto first = need_.begin();
        auto it = std::lower_bound(first + static_cast<std::ptrdiff_t>(lo),
                                   first + static_cast<std::ptrdiff_t>(
                                               std::min(hi, n)),
                                   id);
        ROCK_ASSERT(it != need_.end() && *it == id,
                    "word missing from a class's memo");
        pos_ = static_cast<std::size_t>(it - first);
        return raw_[pos_++];
    }

  private:
    const std::vector<std::uint32_t>& need_;
    const std::vector<double>& raw_;
    std::size_t pos_ = 0;
};

/** Offsets of a CSR over @p n rows from per-row counts in
 *  offset[1..n]. */
void
prefix_sum(std::vector<std::uint32_t>& offset)
{
    for (std::size_t i = 1; i < offset.size(); ++i)
        offset[i] += offset[i - 1];
}

} // namespace

void
FamilyWords::intern(
    const std::vector<const std::vector<std::vector<int>>*>& members,
    std::span<const std::pair<int, int>> edges)
{
    clear();
    generation_ = next_generation++;
    const std::size_t m = members.size();

    // Distinct non-empty words in order of first appearance; per
    // member, every occurrence by that provisional index and its count
    // of empty tracelets: together, its tracelet multiset.
    std::unordered_map<const std::vector<int>*, std::uint32_t, WordHash,
                       WordEq>
        index;
    std::vector<std::vector<std::uint32_t>> occurrences(m);
    std::vector<std::size_t> empties(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (const auto& seq : *members[i]) {
            if (seq.empty()) {
                ++empties[i];
                continue;
            }
            auto [it, fresh] = index.try_emplace(
                &seq, static_cast<std::uint32_t>(vocab_.size()));
            if (fresh)
                vocab_.push_back(&seq);
            occurrences[i].push_back(it->second);
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

    // Twin classes: equal empty counts and equal sorted occurrence
    // lists, i.e. equal multisets. Hash first; compare on a match.
    std::unordered_map<std::uint64_t, std::uint32_t> first_with_hash;
    std::vector<std::uint32_t> next_with_hash;
    class_of_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        auto& occ = occurrences[i];
        for (std::uint32_t& id : occ)
            id = rank[id];
        std::sort(occ.begin(), occ.end());
        std::uint64_t h = 0xcbf29ce484222325ull ^ empties[i];
        for (std::uint32_t id : occ)
            h = (h ^ id) * 0x100000001b3ull;
        auto [it, fresh] = first_with_hash.try_emplace(
            h, static_cast<std::uint32_t>(first_member_.size()));
        std::uint32_t cls = kNone;
        std::uint32_t last = kNone;
        if (!fresh) {
            for (std::uint32_t c = it->second; c != kNone;
                 c = next_with_hash[c]) {
                const std::uint32_t rep = first_member_[c];
                if (empties[rep] == empties[i] && occurrences[rep] == occ) {
                    cls = c;
                    break;
                }
                last = c;
            }
        }
        if (cls == kNone) {
            cls = static_cast<std::uint32_t>(first_member_.size());
            first_member_.push_back(static_cast<std::uint32_t>(i));
            next_with_hash.push_back(kNone);
            if (last != kNone)
                next_with_hash[last] = cls;
            auto& ids = ids_.emplace_back(occ);
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        }
        class_of_[i] = cls;
    }
    const std::size_t num_classes = first_member_.size();

    // Keys. Edges by child member (stable) and members by class, so a
    // dense per-parent-class stamp finds each class's keys; then key
    // ids in order of first edge.
    const std::size_t num_edges = edges.size();
    std::vector<std::uint32_t> in_offset(m + 1, 0);
    for (const auto& [p, c] : edges)
        ++in_offset[static_cast<std::size_t>(c) + 1];
    prefix_sum(in_offset);
    std::vector<std::uint32_t> in_edges(num_edges);
    {
        std::vector<std::uint32_t> next(in_offset.begin(),
                                        in_offset.end() - 1);
        for (std::size_t e = 0; e < num_edges; ++e)
            in_edges[next[static_cast<std::size_t>(edges[e].second)]++] =
                static_cast<std::uint32_t>(e);
    }
    std::vector<std::uint32_t> class_offset(num_classes + 1, 0);
    for (std::uint32_t cls : class_of_)
        ++class_offset[cls + 1];
    prefix_sum(class_offset);
    std::vector<std::uint32_t> class_members(m);
    {
        std::vector<std::uint32_t> next(class_offset.begin(),
                                        class_offset.end() - 1);
        for (std::size_t i = 0; i < m; ++i)
            class_members[next[class_of_[i]]++] =
                static_cast<std::uint32_t>(i);
    }
    key_of_.resize(num_edges);
    std::vector<std::uint32_t> first_edge;
    std::vector<std::uint32_t> stamp(num_classes, kNone);
    std::vector<std::uint32_t> slot(num_classes);
    for (std::uint32_t cc = 0; cc < num_classes; ++cc) {
        for (std::uint32_t k = class_offset[cc]; k < class_offset[cc + 1];
             ++k) {
            const std::uint32_t c = class_members[k];
            for (std::uint32_t j = in_offset[c]; j < in_offset[c + 1];
                 ++j) {
                const std::uint32_t e = in_edges[j];
                const std::uint32_t pc = class_of_[static_cast<std::size_t>(
                    edges[e].first)];
                if (stamp[pc] != cc) {
                    stamp[pc] = cc;
                    slot[pc] = static_cast<std::uint32_t>(first_edge.size());
                    first_edge.push_back(e);
                } else {
                    first_edge[slot[pc]] = std::min(first_edge[slot[pc]], e);
                }
                key_of_[e] = slot[pc];
            }
        }
    }
    std::vector<std::uint32_t> final_id(first_edge.size());
    key_first_edge_.reserve(first_edge.size());
    key_classes_.reserve(first_edge.size());
    for (std::size_t e = 0; e < num_edges; ++e) {
        const std::uint32_t key = key_of_[e];
        if (first_edge[key] == e) {
            final_id[key] = static_cast<std::uint32_t>(key_classes_.size());
            key_first_edge_.push_back(static_cast<std::uint32_t>(e));
            key_classes_.emplace_back(
                class_of_[static_cast<std::size_t>(edges[e].first)],
                class_of_[static_cast<std::size_t>(edges[e].second)]);
        }
        key_of_[e] = final_id[key];
    }
    key_weight_.assign(key_classes_.size(), 0.0);

    adj_offset_.assign(num_classes + 1, 0);
    for (const auto& [pc, cc] : key_classes_) {
        ++adj_offset_[pc + 1];
        ++adj_offset_[cc + 1];
    }
    prefix_sum(adj_offset_);
    adj_.resize(2 * key_classes_.size());
    std::vector<std::uint32_t> next(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
    for (const auto& [pc, cc] : key_classes_) {
        adj_[next[pc]++] = cc;
        adj_[next[cc]++] = pc;
    }
    // A pair of classes keyed both ways is listed twice: keep one.
    std::uint32_t write = 0;
    std::uint32_t begin = 0;
    std::fill(stamp.begin(), stamp.end(), kNone);
    for (std::uint32_t cls = 0; cls < num_classes; ++cls) {
        const std::uint32_t end = adj_offset_[cls + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
            if (stamp[adj_[k]] != cls) {
                stamp[adj_[k]] = cls;
                adj_[write++] = adj_[k];
            }
        }
        adj_offset_[cls + 1] = write;
        begin = end;
    }
    adj_.resize(write);
    need_.assign(num_classes, {});
    raw_.assign(num_classes, {});
}

void
FamilyWords::fill(std::size_t member, const slm::LanguageModel& model,
                  Scratch& scratch)
{
    const std::uint32_t cls = class_of_[member];
    if (first_member_[cls] != member)
        return;
    const std::uint32_t first = adj_offset_[cls];
    const std::uint32_t last = adj_offset_[cls + 1];
    if (first == last)
        return;

    // Need list: the union of this class's ids and its neighbours',
    // marked in a vocabulary-sized bitmap and read back in id order by
    // a scan that clears it again, so one Scratch serves any family.
    const std::size_t bitmap_words = (vocab_.size() + 63) / 64;
    if (scratch.seen.size() < bitmap_words)
        scratch.seen.resize(bitmap_words, 0);
    auto take = [&](std::uint32_t who) {
        for (std::uint32_t id : ids_[who])
            scratch.seen[id / 64] |= std::uint64_t{1} << (id % 64);
    };
    take(cls);
    for (std::uint32_t k = first; k < last; ++k)
        take(adj_[k]);
    scratch.ids.clear();
    for (std::size_t w = 0; w < bitmap_words; ++w) {
        for (std::uint64_t bits = scratch.seen[w]; bits != 0;
             bits &= bits - 1)
            scratch.ids.push_back(static_cast<std::uint32_t>(
                64 * w + static_cast<std::size_t>(std::countr_zero(bits))));
        scratch.seen[w] = 0;
    }

    need_[cls].assign(scratch.ids.begin(), scratch.ids.end());
    scratch.words.clear();
    for (std::uint32_t id : scratch.ids)
        scratch.words.push_back(vocab_[id]);
    scratch.logs.resize(scratch.ids.size());
    model.sequence_log_probs(scratch.words, scratch.logs);
    auto& raw = raw_[cls];
    raw.resize(scratch.ids.size());
    for (std::size_t k = 0; k < raw.size(); ++k)
        raw[k] = std::exp(scratch.logs[k]);
}

std::pair<std::size_t, std::size_t>
FamilyWords::keys_first_in(std::size_t begin, std::size_t end) const
{
    auto at = [&](std::size_t edge) {
        return static_cast<std::size_t>(
            std::lower_bound(key_first_edge_.begin(), key_first_edge_.end(),
                             edge) -
            key_first_edge_.begin());
    };
    return {at(begin), at(end)};
}

void
FamilyWords::weigh(MetricKind kind, std::size_t first, std::size_t last,
                   Scratch& scratch)
{
    for (std::size_t k = first; k < last; ++k) {
        key_weight_[k] = class_distance(kind, key_classes_[k].first,
                                        key_classes_[k].second, scratch);
    }
}

double
FamilyWords::class_distance(MetricKind kind, std::uint32_t parent,
                            std::uint32_t child, Scratch& scratch) const
{
    const auto& a = ids_[parent];
    const auto& b = ids_[child];
    MemoReader from_parent(need_[parent], raw_[parent]);
    if (scratch.dense_generation != generation_ ||
        scratch.dense_class != child) {
        // Only ids of this need list are read back, so stale entries
        // of an earlier child need no reset.
        if (scratch.dense.size() < vocab_.size())
            scratch.dense.resize(vocab_.size());
        for (std::size_t k = 0; k < need_[child].size(); ++k)
            scratch.dense[need_[child][k]] = raw_[child][k];
        scratch.dense_generation = generation_;
        scratch.dense_class = child;
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
