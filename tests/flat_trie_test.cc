/**
 * @file
 * Byte-identity property tests for the flat arena ContextTrie.
 *
 * The arena rewrite (src/slm/context_trie.h) replaced the original
 * pointer-per-node / std::map trie to make the SLM/DKL hot path read
 * contiguous arrays. Its contract is strict: every probability any
 * model family computes over the flat trie must be *byte-identical*
 * (memcmp on the doubles, not approximately equal) to the pointer
 * implementation, because hierarchy selection compares summed DKL
 * weights and the determinism suite pins results across thread
 * counts.
 *
 * This file keeps a test-local copy of the original pointer trie and
 * the original PPM/Katz probability computations (verbatim modulo
 * the obs counter, which does not touch the arithmetic) and checks
 * equality across:
 *  - sampled random corpora x {alphabet, depth, exclusion} for PPM-C
 *    (both the finalized fast path and the pre-finalize general
 *    path),
 *  - sampled random corpora x {alphabet, depth} for Katz,
 *  - DKL values through divergence::kl_divergence,
 *  - PPM's whole-word sequence_log_prob() and its prefix-sharing
 *    batch sequence_log_probs() against the per-symbol prob() loop
 *    (same bits, same escape tally),
 *  - corpora from sampled GeneratorSpecs pushed through the real
 *    pipeline (the models reconstruct() trains and ships).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "corpus/generator.h"
#include "divergence/metrics.h"
#include "rock/pipeline.h"
#include "slm/katz.h"
#include "slm/model.h"
#include "slm/ppm.h"
#include "support/rng.h"
#include "toyc/compiler.h"

namespace {

// ---------------------------------------------------------------------
// Reference implementation: the original pointer-based trie and the
// original PPM/Katz math, kept here as the oracle.
// ---------------------------------------------------------------------

struct RefTrie {
    struct Node {
        std::map<int, int> counts;
        long total = 0;
        std::map<int, std::unique_ptr<Node>> children;
    };

    explicit RefTrie(int depth) : depth(depth) {}

    void add_sequence(const std::vector<int>& seq)
    {
        for (std::size_t i = 0; i < seq.size(); ++i) {
            int symbol = seq[i];
            Node* node = &root;
            node->counts[symbol] += 1;
            node->total += 1;
            for (int k = 1;
                 k <= depth && k <= static_cast<int>(i); ++k) {
                int ctx = seq[i - static_cast<std::size_t>(k)];
                auto& child = node->children[ctx];
                if (!child)
                    child = std::make_unique<Node>();
                node = child.get();
                node->counts[symbol] += 1;
                node->total += 1;
            }
        }
    }

    void context_chain(const std::vector<int>& context,
                       std::vector<const Node*>& chain) const
    {
        chain.push_back(&root);
        const Node* node = &root;
        int limit =
            std::min<int>(depth, static_cast<int>(context.size()));
        for (int k = 1; k <= limit; ++k) {
            int ctx =
                context[context.size() - static_cast<std::size_t>(k)];
            auto it = node->children.find(ctx);
            if (it == node->children.end())
                break;
            node = it->second.get();
            chain.push_back(node);
        }
    }

    std::vector<std::map<int, long>> count_of_counts() const
    {
        std::vector<std::map<int, long>> result(
            static_cast<std::size_t>(depth) + 1);
        auto walk = [&](auto&& self, const Node& node,
                        int order) -> void {
            for (const auto& [symbol, count] : node.counts) {
                (void)symbol;
                result[static_cast<std::size_t>(order)][count] += 1;
            }
            if (order < depth) {
                for (const auto& [symbol, child] : node.children) {
                    (void)symbol;
                    self(self, *child, order + 1);
                }
            }
        };
        walk(walk, root, 0);
        return result;
    }

    int depth;
    Node root;
};

/** The original PpmModel::prob (method C), against a RefTrie. */
class RefPpm final : public rock::slm::LanguageModel {
  public:
    RefPpm(int alphabet_size, int depth, bool exclusion)
        : trie_(depth), alphabet_size_(alphabet_size),
          exclusion_(exclusion)
    {
    }

    void train(const std::vector<int>& seq) override
    {
        trie_.add_sequence(seq);
    }

    int alphabet_size() const override { return alphabet_size_; }

    double prob(int symbol,
                const std::vector<int>& context) const override
    {
        std::vector<const RefTrie::Node*> chain;
        trie_.context_chain(context, chain);

        double escape_acc = 1.0;
        std::set<int> excluded;
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            const RefTrie::Node& node = **it;
            long total = node.total;
            long distinct = static_cast<long>(node.counts.size());
            if (exclusion_ && !excluded.empty()) {
                for (int ex : excluded) {
                    auto found = node.counts.find(ex);
                    if (found != node.counts.end()) {
                        total -= found->second;
                        --distinct;
                    }
                }
            }
            if (total <= 0 || distinct <= 0)
                continue;
            long remaining = alphabet_size_;
            if (exclusion_)
                remaining -= static_cast<long>(excluded.size());
            bool covers = distinct >= remaining;

            auto found = node.counts.find(symbol);
            bool usable = found != node.counts.end() &&
                          (!exclusion_ || !excluded.count(symbol));
            double sym_p = 0.0;
            double esc_p = 0.0;
            double count =
                usable ? static_cast<double>(found->second) : 0.0;
            double n = static_cast<double>(total);
            double q = static_cast<double>(distinct);
            if (covers) {
                sym_p = count / n;
                esc_p = 0.0;
            } else {
                sym_p = count / (n + q);
                esc_p = q / (n + q);
            }
            if (usable)
                return escape_acc * sym_p;
            escape_acc *= esc_p;
            if (exclusion_) {
                for (const auto& [seen, c] : node.counts) {
                    (void)c;
                    excluded.insert(seen);
                }
            }
        }
        long remaining = alphabet_size_;
        if (exclusion_)
            remaining -= static_cast<long>(excluded.size());
        return escape_acc / static_cast<double>(remaining);
    }

  private:
    RefTrie trie_;
    int alphabet_size_;
    bool exclusion_;
};

/** The original KatzModel, against a RefTrie. */
class RefKatz final : public rock::slm::LanguageModel {
  public:
    RefKatz(int alphabet_size, int depth, int threshold)
        : trie_(depth), alphabet_size_(alphabet_size),
          threshold_(threshold)
    {
    }

    void train(const std::vector<int>& seq) override
    {
        trie_.add_sequence(seq);
        coc_valid_ = false;
    }

    int alphabet_size() const override { return alphabet_size_; }

    double prob(int symbol,
                const std::vector<int>& context) const override
    {
        if (!coc_valid_) {
            coc_ = trie_.count_of_counts();
            coc_valid_ = true;
        }
        std::vector<const RefTrie::Node*> chain;
        trie_.context_chain(context, chain);
        std::vector<const RefTrie::Node*> reversed(chain.rbegin(),
                                                   chain.rend());
        return prob_at(reversed, 0, symbol);
    }

  private:
    double discount(int order, int r) const
    {
        if (r > threshold_)
            return 1.0;
        const auto& table = coc_[static_cast<std::size_t>(order)];
        auto nr = table.find(r);
        auto nr1 = table.find(r + 1);
        if (nr == table.end() || nr1 == table.end() ||
            nr->second == 0)
            return 1.0;
        double r_star = static_cast<double>(r + 1) *
                        static_cast<double>(nr1->second) /
                        static_cast<double>(nr->second);
        double d = r_star / static_cast<double>(r);
        if (d <= 0.0 || d >= 1.0)
            return 1.0;
        return d;
    }

    double prob_at(const std::vector<const RefTrie::Node*>& chain,
                   std::size_t level, int symbol) const
    {
        if (level >= chain.size())
            return 1.0 / static_cast<double>(alphabet_size_);
        const RefTrie::Node& node = *chain[level];
        int order = static_cast<int>(chain.size() - 1 - level);

        auto found = node.counts.find(symbol);
        if (found != node.counts.end()) {
            double d = discount(order, found->second);
            return d * static_cast<double>(found->second) /
                   static_cast<double>(node.total);
        }
        double seen_mass = 0.0;
        double lower_seen = 0.0;
        for (const auto& [sym, count] : node.counts) {
            seen_mass += discount(order, count) *
                         static_cast<double>(count) /
                         static_cast<double>(node.total);
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

    RefTrie trie_;
    int alphabet_size_;
    int threshold_;
    mutable std::vector<std::map<int, long>> coc_;
    mutable bool coc_valid_ = false;
};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

bool
bit_identical(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<std::vector<int>>
random_corpus(rock::support::Rng& rng, int alphabet, int sequences,
              int max_len)
{
    std::vector<std::vector<int>> corpus;
    corpus.reserve(static_cast<std::size_t>(sequences));
    for (int s = 0; s < sequences; ++s) {
        int len = static_cast<int>(rng.uniform(1, max_len));
        std::vector<int> seq;
        seq.reserve(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            seq.push_back(static_cast<int>(
                rng.index(static_cast<std::size_t>(alphabet))));
        corpus.push_back(std::move(seq));
    }
    return corpus;
}

/** Query contexts: every training suffix up to length 3 plus random
 *  (mostly unseen) contexts, including the empty context. */
std::vector<std::vector<int>>
query_contexts(const std::vector<std::vector<int>>& corpus,
               rock::support::Rng& rng, int alphabet)
{
    std::vector<std::vector<int>> contexts;
    contexts.push_back({});
    for (const auto& seq : corpus) {
        for (std::size_t end = 1; end <= seq.size(); ++end) {
            for (std::size_t len = 1; len <= 3 && len <= end; ++len)
                contexts.emplace_back(seq.begin() +
                                          static_cast<long>(end - len),
                                      seq.begin() +
                                          static_cast<long>(end));
        }
    }
    for (int i = 0; i < 16; ++i) {
        std::vector<int> ctx;
        int len = static_cast<int>(rng.uniform(1, 4));
        for (int k = 0; k < len; ++k)
            ctx.push_back(static_cast<int>(
                rng.index(static_cast<std::size_t>(alphabet))));
        contexts.push_back(std::move(ctx));
    }
    // Many suffixes repeat; thin the list for test runtime.
    std::sort(contexts.begin(), contexts.end());
    contexts.erase(std::unique(contexts.begin(), contexts.end()),
                   contexts.end());
    return contexts;
}

void
expect_models_identical(const rock::slm::LanguageModel& flat,
                        const rock::slm::LanguageModel& ref,
                        const std::vector<std::vector<int>>& contexts,
                        int alphabet, const char* what)
{
    for (const auto& ctx : contexts) {
        for (int sym = 0; sym < alphabet; ++sym) {
            double got = flat.prob(sym, ctx);
            double want = ref.prob(sym, ctx);
            ASSERT_TRUE(bit_identical(got, want))
                << what << ": prob mismatch at sym " << sym
                << " ctx size " << ctx.size() << ": flat " << got
                << " vs pointer " << want;
        }
    }
}

// ---------------------------------------------------------------------
// PPM: flat arena == pointer oracle, bit for bit
// ---------------------------------------------------------------------

TEST(FlatTrie, PpmByteIdenticalAcrossConfigs)
{
    int cases = 0;
    for (int alphabet : {3, 8, 17}) {
        for (int depth : {1, 2, 3}) {
            for (bool exclusion : {false, true}) {
                rock::support::Rng rng(static_cast<std::uint64_t>(
                    1000 * alphabet + 100 * depth + 10 +
                    (exclusion ? 1 : 0)));
                auto corpus = random_corpus(rng, alphabet, 24, 12);
                auto contexts = query_contexts(corpus, rng, alphabet);

                rock::slm::PpmModel flat(alphabet, depth, exclusion);
                RefPpm ref(alphabet, depth, exclusion);
                for (const auto& seq : corpus) {
                    flat.train(seq);
                    ref.train(seq);
                }

                // Pre-finalize: the general walk over the arena.
                expect_models_identical(flat, ref, contexts, alphabet,
                                        "ppm general path");
                // Post-finalize: the precomputed-vector fast path
                // (or, with exclusion, still the general walk --
                // either way the same bits).
                flat.finalize();
                expect_models_identical(flat, ref, contexts, alphabet,
                                        "ppm finalized path");

                // Training again un-finalizes and both paths still
                // agree after re-finalizing.
                std::vector<int> extra;
                for (int i = 0; i < 6; ++i)
                    extra.push_back(static_cast<int>(
                        rng.index(static_cast<std::size_t>(alphabet))));
                flat.train(extra);
                ref.train(extra);
                expect_models_identical(flat, ref, contexts, alphabet,
                                        "ppm retrained general path");
                flat.finalize();
                expect_models_identical(flat, ref, contexts, alphabet,
                                        "ppm retrained finalized path");
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 18);
}

// ---------------------------------------------------------------------
// PPM whole-word walk == the per-symbol loop, bit for bit
// ---------------------------------------------------------------------

/** The sum sequence_log_prob() must reproduce: ln prob() of every
 *  symbol given its prefix, added in symbol order. */
double
per_symbol_log_prob(const rock::slm::LanguageModel& model,
                    const std::vector<int>& seq)
{
    double log_p = 0.0;
    std::vector<int> context;
    for (int symbol : seq) {
        log_p += std::log(model.prob(symbol, context));
        context.push_back(symbol);
    }
    return log_p;
}

TEST(FlatTrie, PpmSequenceWalkMatchesPerSymbolLoop)
{
    const int alphabet = 9;
    int cases = 0;
    int exclusion_differs = 0;
    for (int depth = 0; depth <= 4; ++depth) {
        for (bool exclusion : {false, true}) {
            for (bool finalized : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "depth " << depth << " exclusion "
                             << exclusion << " finalized " << finalized);
                rock::support::Rng rng(static_cast<std::uint64_t>(
                    100 * depth + 10 + (exclusion ? 1 : 0)));
                auto corpus = random_corpus(rng, alphabet, 24, 12);
                // Trained words, unseen words and the empty word.
                auto queries = corpus;
                auto unseen = random_corpus(rng, alphabet, 24, 10);
                queries.insert(queries.end(), unseen.begin(),
                               unseen.end());
                queries.push_back({});

                rock::slm::PpmModel model(alphabet, depth, exclusion);
                rock::slm::PpmModel plain(alphabet, depth,
                                          /*exclusion=*/false);
                for (const auto& seq : corpus) {
                    model.train(seq);
                    plain.train(seq);
                }
                if (finalized) {
                    model.finalize();
                    plain.finalize();
                }
                for (const auto& q : queries) {
                    const auto t0 = rock::slm::thread_escape_tally();
                    const double got = model.sequence_log_prob(q);
                    const auto t1 = rock::slm::thread_escape_tally();
                    const double want = per_symbol_log_prob(model, q);
                    const auto t2 = rock::slm::thread_escape_tally();
                    ASSERT_TRUE(bit_identical(got, want))
                        << "word of length " << q.size() << ": " << got
                        << " vs " << want;
                    ASSERT_EQ(t1 - t0, t2 - t1) << "escape tally differs";
                    ASSERT_TRUE(bit_identical(model.sequence_prob(q),
                                              std::exp(want)));
                    // Exclusion changes the numbers, so a walk that
                    // skipped the generic path would show here.
                    if (exclusion && finalized &&
                        !bit_identical(got, plain.sequence_log_prob(q)))
                        ++exclusion_differs;
                }
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 20);
    EXPECT_GT(exclusion_differs, 0);
}

TEST(FlatTrie, PpmBatchWalkMatchesPerWordWalk)
{
    // sequence_log_probs() restarts each word from the prefix it shares
    // with the previous one; its values and escapes must equal the
    // per-symbol prob() loop over each word, in sorted order (the memo
    // fill's) and in any other.
    const int alphabet = 7;
    int shared_words = 0;
    for (int depth = 0; depth <= 4; ++depth) {
        for (bool exclusion : {false, true}) {
            for (bool finalized : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "depth " << depth << " exclusion "
                             << exclusion << " finalized " << finalized);
                rock::support::Rng rng(static_cast<std::uint64_t>(
                    1000 + 100 * depth + (exclusion ? 10 : 0) +
                    (finalized ? 1 : 0)));
                const auto corpus = random_corpus(rng, alphabet, 30, 10);
                rock::slm::PpmModel model(alphabet, depth, exclusion);
                for (const auto& seq : corpus)
                    model.train(seq);
                if (finalized)
                    model.finalize();
                // Trained and unseen words, every prefix of a trained
                // word, repeats and the empty word.
                auto words = corpus;
                const auto unseen = random_corpus(rng, alphabet, 20, 10);
                words.insert(words.end(), unseen.begin(), unseen.end());
                for (const auto& seq : corpus) {
                    for (std::size_t k = 0; k < seq.size(); ++k)
                        words.emplace_back(seq.begin(),
                                           seq.begin() +
                                               static_cast<long>(k));
                }
                words.push_back(corpus.front());
                for (bool sorted : {true, false}) {
                    auto list = words;
                    if (sorted)
                        std::sort(list.begin(), list.end());
                    std::vector<const std::vector<int>*> ptrs;
                    for (const auto& w : list)
                        ptrs.push_back(&w);
                    std::vector<double> got(list.size());
                    const auto t0 = rock::slm::thread_escape_tally();
                    model.sequence_log_probs(ptrs, got);
                    const auto t1 = rock::slm::thread_escape_tally();
                    for (std::size_t i = 0; i < list.size(); ++i) {
                        const double want =
                            per_symbol_log_prob(model, list[i]);
                        ASSERT_TRUE(bit_identical(got[i], want))
                            << "word " << i << ": " << got[i] << " vs "
                            << want;
                        if (sorted && i > 0 && !list[i].empty() &&
                            !list[i - 1].empty() &&
                            list[i][0] == list[i - 1][0])
                            ++shared_words;
                    }
                    const auto t2 = rock::slm::thread_escape_tally();
                    ASSERT_EQ(t1 - t0, t2 - t1) << "escape tally differs";
                }
            }
        }
    }
    EXPECT_GT(shared_words, 100);
}

// ---------------------------------------------------------------------
// Katz: flat arena == pointer oracle, bit for bit
// ---------------------------------------------------------------------

TEST(FlatTrie, KatzByteIdenticalAcrossConfigs)
{
    const int threshold = rock::slm::KatzModel::kThreshold;
    for (int alphabet : {4, 11}) {
        for (int depth : {1, 2, 3}) {
            rock::support::Rng rng(static_cast<std::uint64_t>(
                7000 + 100 * alphabet + 10 * depth + threshold));
            auto corpus = random_corpus(rng, alphabet, 24, 12);
            auto contexts = query_contexts(corpus, rng, alphabet);

            rock::slm::KatzModel flat(alphabet, depth);
            RefKatz ref(alphabet, depth, threshold);
            for (const auto& seq : corpus) {
                flat.train(seq);
                ref.train(seq);
            }

            // Lazy count-of-counts path, then the eager finalized one.
            expect_models_identical(flat, ref, contexts, alphabet,
                                    "katz lazy path");
            flat.finalize();
            expect_models_identical(flat, ref, contexts, alphabet,
                                    "katz finalized path");
        }
    }
}

// ---------------------------------------------------------------------
// DKL through the real divergence code
// ---------------------------------------------------------------------

TEST(FlatTrie, KlDivergenceByteIdentical)
{
    const int alphabet = 9;
    for (int depth : {1, 2}) {
        rock::support::Rng rng(
            static_cast<std::uint64_t>(31337 + depth));
        auto corpus_a = random_corpus(rng, alphabet, 20, 10);
        auto corpus_b = random_corpus(rng, alphabet, 20, 10);

        rock::slm::PpmModel flat_a(alphabet, depth, false);
        rock::slm::PpmModel flat_b(alphabet, depth, false);
        RefPpm ref_a(alphabet, depth, false);
        RefPpm ref_b(alphabet, depth, false);
        for (const auto& seq : corpus_a) {
            flat_a.train(seq);
            ref_a.train(seq);
        }
        for (const auto& seq : corpus_b) {
            flat_b.train(seq);
            ref_b.train(seq);
        }
        flat_a.finalize();
        flat_b.finalize();

        // The pipeline's word set: union of observed tracelets.
        std::vector<std::vector<int>> all = corpus_a;
        all.insert(all.end(), corpus_b.begin(), corpus_b.end());
        rock::divergence::WordSet words =
            rock::divergence::sorted_unique_words(all);

        double flat_kl =
            rock::divergence::kl_divergence(flat_a, flat_b, words);
        double ref_kl =
            rock::divergence::kl_divergence(ref_a, ref_b, words);
        ASSERT_TRUE(bit_identical(flat_kl, ref_kl))
            << "DKL differs at depth " << depth << ": " << flat_kl
            << " vs " << ref_kl;

        double flat_js =
            rock::divergence::js_divergence(flat_a, flat_b, words);
        double ref_js =
            rock::divergence::js_divergence(ref_a, ref_b, words);
        ASSERT_TRUE(bit_identical(flat_js, ref_js));
    }
}

// ---------------------------------------------------------------------
// End to end: the models the pipeline actually ships
// ---------------------------------------------------------------------

TEST(FlatTrie, PipelineModelsMatchPointerOracle)
{
    using namespace rock;
    for (std::uint64_t seed : {7u, 99u}) {
        corpus::GeneratorSpec spec;
        spec.num_classes = 14;
        spec.num_trees = 3;
        spec.max_depth = 3;
        spec.scenarios_per_class = 2;
        spec.seed = seed;
        toyc::CompileResult compiled =
            toyc::compile(corpus::generate_program(spec));

        core::RockConfig config;
        core::ReconstructionResult result =
            core::reconstruct(compiled.image, config);
        ASSERT_FALSE(result.models.empty());
        ASSERT_EQ(result.models.size(), result.type_sequences.size());

        support::Rng rng(seed);
        for (std::size_t t = 0; t < result.models.size(); ++t) {
            const auto& model = *result.models[t];
            const int alphabet = model.alphabet_size();
            // Re-train the pointer oracle exactly as train_model
            // trains the shipped model (RockConfig defaults: PPM-C,
            // depth 2, no exclusion).
            RefPpm ref(alphabet, config.slm.depth, config.slm.exclusion);
            for (const auto& seq : result.type_sequences[t])
                ref.train(seq);

            auto contexts = query_contexts(result.type_sequences[t],
                                           rng, alphabet);
            expect_models_identical(model, ref, contexts, alphabet,
                                    "pipeline model");
        }
    }
}

} // namespace
