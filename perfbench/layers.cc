#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "cfg/cfg_cache.h"
#include "cfg/verify.h"
#include "divergence/metrics.h"
#include "divergence/word_set.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "graph/enumerate.h"
#include "obs/metrics.h"
#include "slm/snapshot.h"
#include "support/parallel.h"
#include "typeinf/typeinf.h"

namespace perfbench {

using namespace rock;
using Clock = std::chrono::steady_clock;

// ---- SpanRecorder ----------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double
SpanRecorder::now_ms() const
{
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
}

int
SpanRecorder::record(std::string name, int parent, int op,
                     double start_ms, double end_ms)
{
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.op = op;
    span.name = std::move(name);
    span.start_ms = start_ms;
    span.end_ms = end_ms;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder)
{
    const int parent =
        recorder.open_.empty() ? -1 : recorder.open_.back();
    const double now = recorder.now_ms();
    id_ = recorder.record(std::move(name), parent, recorder.op_, now,
                          now);
    recorder.open_.push_back(id_);
}

SpanRecorder::Scope::~Scope()
{
    recorder_.spans_[static_cast<std::size_t>(id_)].end_ms =
        recorder_.now_ms();
    if (!recorder_.open_.empty() && recorder_.open_.back() == id_)
        recorder_.open_.pop_back();
}

std::map<int, std::map<std::string, double>>
SpanRecorder::self_ms_by_op() const
{
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            covered[static_cast<std::size_t>(s.parent)] += s.ms();
    }
    std::map<int, std::map<std::string, double>> out;
    for (const Span& s : spans_)
        out[s.op][s.name] +=
            s.ms() - covered[static_cast<std::size_t>(s.id)];
    return out;
}

bool
SpanRecorder::write_chrome_trace(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%d,\"parent\":%d}}\n",
                     i ? "," : "", s.name.c_str(), s.op,
                     s.start_ms * 1000.0, s.ms() * 1000.0, s.id,
                     s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

// ---- Result digest ---------------------------------------------------

namespace {

std::uint64_t
mix_int(std::uint64_t h, long long v)
{
    return cache::mix(h, static_cast<std::uint64_t>(v));
}

std::uint64_t
mix_str(std::uint64_t h, const std::string& s)
{
    h = mix_int(h, static_cast<long long>(s.size()));
    return cache::fnv1a(s.data(), s.size(), h);
}

template <typename Ints>
std::uint64_t
mix_ints(std::uint64_t h, const Ints& values)
{
    h = mix_int(h, static_cast<long long>(values.size()));
    for (auto v : values)
        h = mix_int(h, static_cast<long long>(v));
    return h;
}

} // namespace

std::uint64_t
result_digest(const core::ReconstructionResult& r)
{
    std::uint64_t h = cache::kFnvSeed;
    h = mix_str(h, r.hierarchy.to_string());
    for (const auto& [edge, d] : r.sorted_distances()) {
        h = mix_int(h, edge.first);
        h = mix_int(h, edge.second);
        h = cache::mix_double(h, d);
    }
    for (const core::FamilyResult& fam : r.families) {
        h = mix_int(h, fam.family_id);
        h = mix_ints(h, fam.members);
        for (const auto& alt : fam.alternatives)
            h = mix_ints(h, alt);
        h = mix_int(h, fam.structurally_ambiguous ? 1 : 0);
    }
    h = mix_int(h, r.ambiguous_families);
    const structural::StructuralResult& st = r.structural;
    h = mix_ints(h, st.types);
    h = mix_ints(h, st.family);
    for (const auto& parents : st.possible_parents)
        h = mix_ints(h, parents);
    for (const auto& [child, parent] : st.forced_parents)
        h = mix_int(mix_int(h, child), parent);
    for (const auto& [secondary, primary] : st.secondary_of)
        h = mix_int(mix_int(h, secondary), primary);
    for (const cfg::Diagnostic& d : r.diagnostics)
        h = mix_str(h, cfg::to_string(d));
    h = mix_int(h, r.analysis.total_paths);
    h = mix_int(h, r.alphabet.size());
    return h;
}

bool
covers_all_types(const core::ReconstructionResult& r)
{
    if (r.hierarchy.size() !=
        static_cast<int>(r.structural.types.size()))
        return false;
    for (std::uint32_t t : r.structural.types) {
        if (r.hierarchy.index_of(t) < 0)
            return false;
    }
    return true;
}

// ---- Layer replay ----------------------------------------------------

namespace {

using Scope = SpanRecorder::Scope;

bool
same_evidence(const std::vector<analysis::ObjectEvidence>& a,
              const std::vector<analysis::ObjectEvidence>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].vptr_stores != b[i].vptr_stores ||
            a[i].this_calls != b[i].this_calls ||
            a[i].from_this_param != b[i].from_this_param)
            return false;
    }
    return true;
}

bool
same_analysis(const analysis::AnalysisResult& a,
              const analysis::AnalysisResult& b)
{
    return a.vtables == b.vtables && a.type_tracelets == b.type_tracelets &&
           same_evidence(a.evidence, b.evidence) &&
           a.ctor_types == b.ctor_types && a.total_paths == b.total_paths;
}

bool
same_structural(const structural::StructuralResult& a,
                const structural::StructuralResult& b)
{
    return a.types == b.types && a.family == b.family &&
           a.possible_parents == b.possible_parents &&
           a.forced_parents == b.forced_parents &&
           a.parent_counts == b.parent_counts &&
           a.secondary_of == b.secondary_of;
}

bool
same_typeinf(const typeinf::TypeInfResult& a,
             const typeinf::TypeInfResult& b)
{
    return a.types == b.types &&
           a.constraints.constraints == b.constraints.constraints &&
           a.constraints.num_vars == b.constraints.num_vars &&
           a.constraints.this_vars == b.constraints.this_vars &&
           a.sketches == b.sketches && a.direct_edges == b.direct_edges &&
           a.subtype_edges == b.subtype_edges &&
           a.inconsistencies == b.inconsistencies &&
           a.var_type == b.var_type && a.stats == b.stats;
}

std::vector<std::uint8_t>
snapshot(const slm::LanguageModel& model)
{
    cache::ByteWriter out;
    slm::snapshot_model(model, out);
    return out.take();
}

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** One candidate edge of the distance work list. */
struct Edge {
    int parent = 0;
    int child = 0;
    bool discounted = false;
};

/** slm, divergence and graph: reconstruct()'s per-family tail. */
std::string
replay_tail(const core::ReconstructionResult& ref,
            const core::RockConfig& config, SpanRecorder& rec,
            LayerCounts& counts)
{
    const structural::StructuralResult& st = ref.structural;
    const auto& types = st.types;
    const std::size_t n = types.size();
    const int num_families = st.num_families();
    std::vector<std::vector<int>> members(
        static_cast<std::size_t>(num_families));
    for (int f = 0; f < num_families; ++f)
        members[static_cast<std::size_t>(f)] = st.family_members(f);

    // ---- slm: alphabet interning, then one model per type -------------
    analysis::Alphabet alphabet;
    std::vector<std::vector<std::vector<int>>> seqs(n);
    {
        Scope span(rec, "slm.train");
        for (std::size_t t = 0; t < n; ++t) {
            auto it = ref.analysis.type_tracelets.find(types[t]);
            if (it == ref.analysis.type_tracelets.end())
                continue;
            for (const auto& tracelet : it->second)
                seqs[t].push_back(alphabet.intern(tracelet));
        }
    }
    if (seqs != ref.type_sequences ||
        alphabet.size() != ref.alphabet.size())
        return "slm: interned sequences differ from reconstruct()'s";
    const int alphabet_size = std::max(1, ref.alphabet.size());

    obs::Counter& trie_nodes =
        obs::Registry::global().counter("slm.trie_nodes");
    const std::uint64_t nodes_before = trie_nodes.value();
    std::vector<std::unique_ptr<slm::LanguageModel>> models(n);
    for (const auto& mem : members) {
        Scope span(rec, "slm.train");
        for (int t : mem)
            models[static_cast<std::size_t>(t)] = slm::train_model(
                config.slm, alphabet_size,
                ref.type_sequences[static_cast<std::size_t>(t)]);
    }
    counts.slm_trie_nodes += trie_nodes.value() - nodes_before;
    for (std::size_t t = 0; t < n; ++t) {
        if (!ref.models[t] ||
            snapshot(*models[t]) != snapshot(*ref.models[t]))
            return "slm: model of type " + std::to_string(t) +
                   " differs from reconstruct()'s";
    }

    // ---- divergence: the feasible-edge work list, then its weights ----
    const bool fuse = config.typeinf && !ref.typeinf.types.empty();
    std::set<std::pair<int, int>> pruned;
    std::vector<std::vector<Edge>> edges(
        static_cast<std::size_t>(num_families));
    std::size_t num_edges = 0;
    for (int f = 0; f < num_families; ++f) {
        const auto& mem = members[static_cast<std::size_t>(f)];
        if (mem.size() < 2)
            continue;
        for (int child : mem) {
            auto forced = st.forced_parents.find(child);
            const std::uint32_t child_vt =
                types[static_cast<std::size_t>(child)];
            for (int p : st.possible_parents[static_cast<std::size_t>(
                     child)]) {
                if (forced != st.forced_parents.end() &&
                    forced->second == p)
                    continue;
                const std::uint32_t p_vt =
                    types[static_cast<std::size_t>(p)];
                if (fuse && ref.typeinf.subtype(p_vt, child_vt)) {
                    pruned.insert({p, child});
                    continue;
                }
                edges[static_cast<std::size_t>(f)].push_back(
                    {p, child, fuse && ref.typeinf.subtype(child_vt, p_vt)});
                ++num_edges;
            }
        }
    }
    counts.typeinf_edges_pruned += pruned.size();
    if (num_edges != ref.distances.size())
        return "divergence: work list has " + std::to_string(num_edges) +
               " edges, reconstruct() weighed " +
               std::to_string(ref.distances.size());

    const bool observed_union = config.words.strategy ==
                                divergence::WordSetStrategy::ObservedUnion;
    const divergence::PairTally tally_before =
        divergence::thread_pair_tally();
    const std::uint64_t escapes_before = slm::thread_escape_tally();
    std::vector<divergence::WordSet> type_words(observed_union ? n : 0);
    for (int f = 0; f < num_families; ++f) {
        const auto& fam_edges = edges[static_cast<std::size_t>(f)];
        if (fam_edges.empty())
            continue;
        std::vector<double> weights;
        weights.reserve(fam_edges.size());
        {
            Scope span(rec, "divergence");
            if (observed_union) {
                for (int t : members[static_cast<std::size_t>(f)])
                    type_words[static_cast<std::size_t>(t)] =
                        divergence::sorted_unique_words(
                            ref.type_sequences[static_cast<std::size_t>(
                                t)]);
            }
            for (const Edge& e : fam_edges) {
                const auto p = static_cast<std::size_t>(e.parent);
                const auto c = static_cast<std::size_t>(e.child);
                divergence::WordSet words =
                    observed_union
                        ? divergence::merge_word_sets(type_words[p],
                                                      type_words[c])
                        : divergence::build_word_set(
                              config.words, ref.type_sequences[p],
                              ref.type_sequences[c], ref.models[p].get(),
                              alphabet_size);
                double w = 0.0;
                if (!words.empty())
                    w = divergence::pair_distance(config.metric,
                                                  *ref.models[p],
                                                  *ref.models[c], words);
                if (e.discounted && w > 0.0)
                    w *= config.typeinf_discount;
                weights.push_back(w);
            }
        }
        for (std::size_t i = 0; i < fam_edges.size(); ++i) {
            auto it = ref.distances.find(
                {fam_edges[i].parent, fam_edges[i].child});
            if (it == ref.distances.end() ||
                !same_bits(it->second, weights[i]))
                return "divergence: weight of edge " +
                       std::to_string(fam_edges[i].parent) + "->" +
                       std::to_string(fam_edges[i].child) +
                       " differs from reconstruct()'s";
        }
    }
    const divergence::PairTally tally_after =
        divergence::thread_pair_tally();
    counts.divergence_pairs += tally_after.pairs - tally_before.pairs;
    counts.divergence_words += tally_after.words - tally_before.words;
    counts.slm_escapes += slm::thread_escape_tally() - escapes_before;

    // ---- graph: structural probe, weighted enumeration, majority vote -
    if (ref.families.size() != static_cast<std::size_t>(num_families))
        return "graph: family count differs from reconstruct()'s";
    const std::uint64_t contractions_before =
        graph::thread_contraction_tally();
    for (int f = 0; f < num_families; ++f) {
        const auto& mem = members[static_cast<std::size_t>(f)];
        const core::FamilyResult& want =
            ref.families[static_cast<std::size_t>(f)];
        const int m = static_cast<int>(mem.size());
        bool ambiguous = false;
        std::vector<std::vector<int>> alternatives;
        if (m == 1) {
            alternatives.push_back({-1});
        } else {
            std::map<int, int> local;
            for (int i = 0; i < m; ++i)
                local[mem[static_cast<std::size_t>(i)]] = i;
            std::vector<graph::Arborescence> forests;
            {
                Scope span(rec, "graph");
                graph::Digraph skeleton(m);
                graph::Digraph weighted(m);
                for (int i = 0; i < m; ++i) {
                    const int child = mem[static_cast<std::size_t>(i)];
                    auto forced = st.forced_parents.find(child);
                    for (int p : st.possible_parents
                                     [static_cast<std::size_t>(child)]) {
                        skeleton.add_edge(local.at(p), i, 0.0);
                        const bool is_forced =
                            forced != st.forced_parents.end() &&
                            forced->second == p;
                        if (!is_forced && pruned.count({p, child}))
                            continue;
                        weighted.add_edge(
                            local.at(p), i,
                            is_forced ? 0.0 : ref.distances.at({p, child}));
                    }
                }
                // reconstruct()'s structural-ambiguity probe: is there a
                // second zero-weight spanning forest?
                graph::EnumerateConfig probe;
                probe.epsilon = 0.0;
                probe.max_results = 2;
                probe.max_steps = 200000;
                ambiguous =
                    graph::enumerate_min_forests(skeleton, probe).size() > 1;
                graph::EnumerateConfig ties;
                ties.epsilon = config.tie_epsilon;
                ties.max_results = config.max_alternatives;
                forests = graph::enumerate_min_forests(weighted, ties);
                counts.graph_forests += forests.size();
                core::detail::majority_filter(forests);
                counts.graph_kept += forests.size();
            }
            for (const auto& forest : forests) {
                std::vector<int> parents(static_cast<std::size_t>(m), -1);
                for (int i = 0; i < m; ++i) {
                    const int lp = forest.parent[static_cast<std::size_t>(i)];
                    if (lp >= 0)
                        parents[static_cast<std::size_t>(i)] =
                            mem[static_cast<std::size_t>(lp)];
                }
                alternatives.push_back(std::move(parents));
            }
        }
        if (want.members != mem || want.alternatives != alternatives ||
            want.structurally_ambiguous != ambiguous)
            return "graph: family " + std::to_string(f) +
                   " differs from reconstruct()'s";
    }
    counts.graph_contractions +=
        graph::thread_contraction_tally() - contractions_before;
    return {};
}

} // namespace

std::string
replay_layers(const bir::BinaryImage& image,
              const core::ReconstructionResult& ref,
              const core::RockConfig& config,
              const std::shared_ptr<cache::ArtifactCache>& store,
              bool tail, SpanRecorder& rec, LayerCounts& counts)
{
    support::ThreadPool pool(1);

    cfg::CfgCache cfgs(image);
    {
        Scope span(rec, "cfg.build");
        cfgs.build_all(pool);
    }
    counts.cfg_functions += cfgs.size();
    if (cfgs.size() != image.functions.size())
        return "cfg: built " + std::to_string(cfgs.size()) +
               " CFGs for " + std::to_string(image.functions.size()) +
               " functions";

    // reconstruct() lists the verifier's findings, then typeinf's.
    std::size_t verified = 0;
    if (config.verify) {
        std::vector<cfg::Diagnostic> diags;
        {
            Scope span(rec, "cfg.verify");
            diags = cfg::verify_image(image, pool, cfgs);
        }
        if (diags.size() > ref.diagnostics.size() ||
            !std::equal(diags.begin(), diags.end(),
                        ref.diagnostics.begin()))
            return "cfg.verify: diagnostics differ from reconstruct()'s";
        verified = diags.size();
    }

    analysis::SymExecConfig symexec = config.symexec;
    symexec.threads = 1;
    analysis::AnalysisResult an;
    {
        Scope span(rec, "analysis");
        an = analysis::analyze(image, symexec, cfgs, store);
    }
    counts.analysis_paths += static_cast<std::uint64_t>(an.total_paths);
    for (const auto& [type, tracelets] : an.type_tracelets)
        counts.analysis_tracelets += tracelets.size();
    if (!same_analysis(an, ref.analysis))
        return "analysis: result differs from reconstruct()'s";

    structural::StructuralResult st;
    {
        Scope span(rec, "structural");
        st = structural::structural_analysis(ref.analysis.vtables,
                                             ref.analysis.evidence,
                                             ref.analysis.ctor_types);
    }
    for (const auto& parents : st.possible_parents)
        counts.structural_feasible_edges += parents.size();
    if (!same_structural(st, ref.structural))
        return "structural: result differs from reconstruct()'s";

    std::vector<cfg::Diagnostic> typeinf_diags;
    if (config.typeinf) {
        typeinf::TypeInfResult ti;
        {
            Scope span(rec, "typeinf");
            ti = typeinf::infer(image, cfgs, ref.analysis.vtables, pool,
                                store);
        }
        counts.typeinf_constraints += ti.stats.constraints;
        if (!same_typeinf(ti, ref.typeinf))
            return "typeinf: result differs from reconstruct()'s";
        typeinf_diags = ti.diagnostics();
    }
    if (verified + typeinf_diags.size() != ref.diagnostics.size() ||
        !std::equal(typeinf_diags.begin(), typeinf_diags.end(),
                    ref.diagnostics.begin() +
                        static_cast<std::ptrdiff_t>(verified)))
        return "typeinf: diagnostics differ from reconstruct()'s";

    return tail ? replay_tail(ref, config, rec, counts) : std::string();
}

} // namespace perfbench
