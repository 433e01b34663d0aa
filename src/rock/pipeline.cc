#include "rock/pipeline.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <utility>

#include "cache/artifact_cache.h"
#include "divergence/family_words.h"
#include "graph/ambiguity.h"
#include "graph/digraph.h"
#include "graph/edmonds.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rock/artifacts.h"
#include "slm/snapshot.h"
#include "support/error.h"
#include "support/log.h"
#include "support/parallel.h"
#include "support/str.h"

namespace rock::core {

namespace detail {

void
majority_filter(std::vector<graph::Arborescence>& forests)
{
    if (forests.size() <= 1)
        return;
    // A capped set is a sample picked by member order, not the
    // co-optimal set: a vote over it would pick by that order too.
    if (forests.size() >=
        static_cast<std::size_t>(RockConfig::max_alternatives)) {
        forests.resize(1);
        return;
    }
    bool changed = true;
    while (changed && forests.size() > 1) {
        changed = false;
        std::size_t positions = forests.front().parent.size();
        for (std::size_t m = 0; m < positions && !changed; ++m) {
            std::map<int, int> votes;
            for (const auto& f : forests)
                votes[f.parent[m]] += 1;
            // At most one parent can hold a strict majority at this
            // position; find it, then decide separately whether it
            // leaves any dissenter to drop (a unanimous vote does
            // not).
            const int total = static_cast<int>(forests.size());
            bool drop_dissenters = false;
            int majority_parent = -1;
            for (const auto& [parent, count] : votes) {
                if (2 * count > total) {
                    majority_parent = parent;
                    drop_dissenters = count < total;
                    break;
                }
            }
            if (!drop_dissenters)
                continue;
            std::vector<graph::Arborescence> kept;
            kept.reserve(forests.size());
            for (auto& f : forests) {
                if (f.parent[m] == majority_parent)
                    kept.push_back(std::move(f));
            }
            forests = std::move(kept);
            changed = true;
        }
    }
}

} // namespace detail

namespace {

/** How the solve treats one feasible candidate edge; the values are
 *  the edge codes folded into the "famsolve" content key. */
enum class EdgeKind : std::uint8_t {
    Weighed = 0, ///< distance in a slot of result.distances
    Forced = 1,  ///< rule-3 constructor evidence: costs nothing
    Pruned = 2,  ///< contradicts a solved subtype fact
};

/** One feasible (parent, child) edge, in member positions. */
struct CandidateEdge {
    int parent = 0;
    int child = 0;
    EdgeKind kind = EdgeKind::Weighed;
    /** Index into result.distances (Weighed only). */
    std::size_t slot = 0;
};

/** One family's candidate-edge table and tail state. */
struct FamilyPlan {
    /** Every feasible edge of a multi-member family in (member,
     *  possible-parent) order, the order ties are enumerated in. */
    std::vector<CandidateEdge> candidates;
    /** The family's slots of result.distances, [edge_begin,
     *  edge_end). */
    std::size_t edge_begin = 0;
    std::size_t edge_end = 0;
    /** "famdist" key; loaded when its probe pre-filled the weights. */
    std::uint64_t famdist_content = 0;
    bool famdist_loaded = false;
    /** ObservedUnion word table and raw-probability memo: interned,
     *  filled by the train chunks, read by the distance chunks and
     *  freed before the solve. */
    divergence::FamilyWords memo;
    /** Memo-fill and distance-chunk work tallies, or a famdist hit's
     *  stored ones; solve_stage() adds them to the registry. */
    std::atomic<std::uint64_t> pairs{0};
    std::atomic<std::uint64_t> words{0};
    std::atomic<std::uint64_t> escapes{0};
};

/** Everything one reconstruct() call shares between its stages. */
struct RunContext {
    RunContext(const bir::BinaryImage& image_, const RockConfig& config_,
               ReconstructionResult& result_, support::ThreadPool& pool_)
        : image(image_), config(config_), result(result_), pool(pool_)
    {
    }

    const bir::BinaryImage& image;
    const RockConfig& config;
    ReconstructionResult& result;
    support::ThreadPool& pool;

    // Artifact cache (null when caching is off).
    std::shared_ptr<cache::ArtifactCache> store;
    bool warm = false;
    std::uint64_t manifest_content = 0;
    std::uint64_t manifest_fp = 0;
    std::uint64_t fp_slm = 0;
    std::uint64_t fp_dist = 0;
    std::uint64_t fp_solve = 0;
    /** Per-type "slm" content keys. */
    std::vector<std::uint64_t> type_seq_hash;

    int alphabet_size = 1;
    /** Per-type training cost: 1 + total symbol count. */
    std::vector<std::uint64_t> type_costs;
    const bool observed_union = config.words.strategy ==
                                divergence::WordSetStrategy::ObservedUnion;
    /** Per type: its position among its family's members. */
    std::vector<int> member_pos;

    /** Candidate tables, indexed like result.families. */
    std::vector<FamilyPlan> families;
    /** Per slot of result.distances: a solved subtype fact agrees. */
    std::vector<char> edge_discounted;
};

/**
 * Resolve the opt-in artifact cache (config.cache, else the process
 * default the CLIs set) and probe the run's "manifest": a hit means a
 * completed run of this exact image and configuration populated the
 * store, and the zero-length pipeline.warm span marks the run warm.
 */
void
open_cache(RunContext& ctx)
{
    ctx.store = cache::resolve_cache(ctx.config.cache);
    if (!ctx.store)
        return;
    ctx.manifest_content = cfg::image_digest(ctx.image);
    ctx.manifest_fp = config_fingerprint(ctx.config);
    std::vector<std::uint8_t> blob;
    if (ctx.store->get(
            {kManifestKind, ctx.manifest_content, ctx.manifest_fp},
            blob)) {
        ctx.warm = true;
        obs::Span warm_span("pipeline.warm");
        warm_span.end();
    }
}

/** cfg -> verify -> analyze -> structural -> typeinf, one span each. */
void
run_front_end(RunContext& ctx)
{
    ReconstructionResult& result = ctx.result;

    // Shared CFG recovery (parallel over functions): built once,
    // consumed by the verifier, the behavioral analysis and typeinf;
    // nobody downstream rebuilds a CFG or re-decodes a body.
    cfg::CfgCache cfgs(ctx.image);
    {
        obs::Span span("pipeline.cfg");
        cfgs.build_all(ctx.pool);
    }

    {
        obs::Span span("pipeline.verify");
        result.diagnostics = cfg::verify_image(ctx.image, ctx.pool, cfgs);
    }
    if (!result.diagnostics.empty()) {
        ROCK_LOG_WARN << "rockcheck: " << result.diagnostics.size()
                      << " diagnostic(s) on the input image, e.g. "
                      << cfg::to_string(result.diagnostics.front());
    }

    {
        obs::Span span("pipeline.analyze");
        result.analysis = analysis::analyze(
            ctx.image, ctx.config.symexec, cfgs, ctx.store, ctx.pool);
    }

    {
        obs::Span span("pipeline.structural");
        result.structural = structural::structural_analysis(
            result.analysis.vtables, result.analysis.evidence,
            result.analysis.ctor_types);
    }

    // Solved derives-from facts sharpen the arborescence objective;
    // inconsistent evidence joins the rockcheck findings.
    if (ctx.config.typeinf) {
        {
            obs::Span span("pipeline.typeinf");
            result.typeinf =
                typeinf::infer(ctx.image, cfgs, result.analysis.vtables,
                               ctx.pool, ctx.store);
        }
        for (cfg::Diagnostic& d : result.typeinf.diagnostics())
            result.diagnostics.push_back(std::move(d));
    }
}

/** Train prelude (serial): alphabet interning in type order, so symbol
 *  ids are deterministic, plus training costs and the fingerprints.
 *  Each per-family train task then writes only its own model slots. */
void
intern_alphabet(RunContext& ctx)
{
    ReconstructionResult& result = ctx.result;
    const auto& types = result.structural.types;
    const std::size_t n = types.size();
    auto& seqs = result.type_sequences;
    seqs.assign(n, {});
    // Training cost is linear in a type's total symbol count; chunking
    // by it keeps one tracelet-heavy type from serializing a chain.
    ctx.type_costs.assign(n, 1);
    for (std::size_t t = 0; t < n; ++t) {
        auto it = result.analysis.type_tracelets.find(types[t]);
        if (it == result.analysis.type_tracelets.end())
            continue;
        for (const auto& tracelet : it->second) {
            seqs[t].push_back(result.alphabet.intern(tracelet));
            ctx.type_costs[t] += seqs[t].back().size();
        }
    }
    ctx.alphabet_size = std::max(1, result.alphabet.size());
    result.models.resize(n);

    // Tries store interned symbol ids, so every fingerprint folds the
    // alphabet digest; the per-type key is the member-sequence
    // multiset hash (identical multisets share one snapshot).
    if (ctx.store) {
        const std::uint64_t alpha = alphabet_digest(result.alphabet);
        ctx.fp_slm =
            slm_fingerprint(ctx.config.slm, ctx.alphabet_size, alpha);
        ctx.fp_dist =
            distance_fingerprint(ctx.config, ctx.alphabet_size, alpha);
        ctx.fp_solve = solve_fingerprint(ctx.config);
        ctx.type_seq_hash.resize(n);
        for (std::size_t t = 0; t < n; ++t)
            ctx.type_seq_hash[t] = sequence_multiset_hash(seqs[t]);
    }
}

/**
 * Candidate planning (serial): classify every feasible edge once. A
 * forced rule-3 edge outranks everything; p -> child is pruned when
 * typeinf proved p derives from child (it would invert a known
 * derivation); every other edge is weighed, at a discount when the
 * agreeing fact is solved. Then each family probes its "famdist" blob.
 */
void
plan_candidates(RunContext& ctx)
{
    ReconstructionResult& result = ctx.result;
    DistanceTable& table = result.distances;
    const structural::StructuralResult& st = result.structural;
    const auto& types = st.types;
    const auto num_families = static_cast<std::size_t>(st.num_families());
    ctx.families = std::vector<FamilyPlan>(num_families);
    result.families.resize(num_families);
    // Members in ascending type order; each type's position in them.
    std::vector<int>& pos = ctx.member_pos;
    pos.assign(types.size(), 0);
    for (std::size_t t = 0; t < types.size(); ++t) {
        const auto f = static_cast<std::size_t>(st.family[t]);
        pos[t] = static_cast<int>(result.families[f].members.size());
        result.families[f].members.push_back(static_cast<int>(t));
    }

    const bool fuse = ctx.config.typeinf && !result.typeinf.types.empty();
    std::uint64_t forced_count = 0;
    std::uint64_t pruned_count = 0;
    std::uint64_t discounted = 0;
    for (std::size_t f = 0; f < num_families; ++f) {
        FamilyPlan& fam = ctx.families[f];
        const auto& members = result.families[f].members;
        result.families[f].family_id = static_cast<int>(f);
        fam.edge_begin = fam.edge_end = table.size();
        if (members.size() < 2)
            continue;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto c = static_cast<std::size_t>(members[i]);
            auto forced = st.forced_parents.find(members[i]);
            for (int parent : st.possible_parents[c]) {
                const auto p = static_cast<std::size_t>(parent);
                ROCK_ASSERT(st.family[p] == static_cast<int>(f),
                            "type outside its family");
                CandidateEdge edge{pos[p], static_cast<int>(i),
                                   EdgeKind::Weighed, table.size()};
                if (forced != st.forced_parents.end() &&
                    forced->second == parent) {
                    edge.kind = EdgeKind::Forced;
                    ++forced_count;
                } else if (fuse &&
                           result.typeinf.subtype(types[p], types[c])) {
                    edge.kind = EdgeKind::Pruned;
                    ++pruned_count;
                } else {
                    const bool agrees =
                        fuse && result.typeinf.subtype(types[c], types[p]);
                    discounted += agrees ? 1 : 0;
                    table.append(parent, members[i]);
                    ctx.edge_discounted.push_back(agrees ? 1 : 0);
                }
                fam.candidates.push_back(edge);
            }
        }
        fam.edge_end = table.size();
    }
    // DKL pairs actually scheduled vs. pruned away by structural
    // certainty or by a contradicting solved subtype fact.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("divergence.pairs_scheduled").add(table.size());
    reg.counter("divergence.pairs_pruned_forced").add(forced_count);
    reg.counter("typeinf.edges_pruned").add(pruned_count);
    reg.counter("typeinf.edges_discounted").add(discounted);

    // A "famdist" hit pre-fills the family's weights and the work
    // tallies of the evaluation it skips.
    for (FamilyPlan& fam : ctx.families) {
        if (!ctx.store || fam.edge_begin == fam.edge_end)
            continue;
        std::uint64_t h =
            cache::mix(cache::kFnvSeed, fam.edge_end - fam.edge_begin);
        for (std::size_t e = fam.edge_begin; e < fam.edge_end; ++e) {
            const auto [p, c] = table[e].first;
            h = cache::mix(h, static_cast<std::uint32_t>(p));
            h = cache::mix(h, static_cast<std::uint32_t>(c));
            h = cache::mix(h, ctx.type_seq_hash[static_cast<std::size_t>(p)]);
            h = cache::mix(h, ctx.type_seq_hash[static_cast<std::size_t>(c)]);
            h = cache::mix(h, ctx.edge_discounted[e] ? 1 : 0);
        }
        fam.famdist_content = h;
        std::vector<std::uint8_t> blob;
        if (!ctx.store->get({kFamilyDistanceKind, h, ctx.fp_dist}, blob))
            continue;
        cache::ByteReader in(blob);
        FamilyDistanceBlob dist;
        if (!decode_family_distances(in, &dist) ||
            dist.weights.size() != fam.edge_end - fam.edge_begin)
            continue;
        for (std::size_t i = 0; i < dist.weights.size(); ++i)
            table[fam.edge_begin + i].second = dist.weights[i];
        fam.famdist_loaded = true;
        fam.pairs = dist.pairs;
        fam.words = dist.words;
        fam.escapes = dist.escapes;
    }
}

/** Train type @p t's model, or restore its "slm" snapshot. */
void
train_type(RunContext& ctx, std::size_t t)
{
    const auto& seqs = ctx.result.type_sequences[t];
    auto& model = ctx.result.models[t];
    cache::ArtifactKey key{kSlmArtifactKind, 0, ctx.fp_slm};
    std::vector<std::uint8_t> blob;
    if (ctx.store) {
        key.content = ctx.type_seq_hash[t];
        if (ctx.store->get(key, blob)) {
            cache::ByteReader in(blob);
            model = slm::restore_model(ctx.config.slm, ctx.alphabet_size,
                                       in);
        }
    }
    if (model) {
        slm::record_training_metrics(*model, seqs);
        return;
    }
    model = slm::train_model(ctx.config.slm, ctx.alphabet_size, seqs);
    if (ctx.store) {
        cache::ByteWriter out;
        slm::snapshot_model(*model, out);
        ctx.store->put(key, out.take());
    }
}

/** Word-table task, first in an ObservedUnion family's chain: intern
 *  the members' tracelets and the weighed edges, unless the family's
 *  "famdist" probe already filled its weights. */
void
intern_family(RunContext& ctx, std::size_t f)
{
    FamilyPlan& fam = ctx.families[f];
    if (fam.famdist_loaded)
        return;
    obs::Span span("pipeline.distances");
    const auto& members = ctx.result.families[f].members;
    std::vector<const std::vector<std::vector<int>>*> seqs;
    seqs.reserve(members.size());
    for (int t : members)
        seqs.push_back(
            &ctx.result.type_sequences[static_cast<std::size_t>(t)]);
    std::vector<std::pair<int, int>> edges;
    edges.reserve(fam.edge_end - fam.edge_begin);
    for (std::size_t e = fam.edge_begin; e < fam.edge_end; ++e) {
        const auto [p, c] = ctx.result.distances[e].first;
        edges.emplace_back(ctx.member_pos[static_cast<std::size_t>(p)],
                           ctx.member_pos[static_cast<std::size_t>(c)]);
    }
    fam.memo.intern(seqs, edges);
}

/** Train task: the models of family @p f's members in @p chunk, then
 *  their memo fills when the family has a word table to fill. */
void
train_chunk(RunContext& ctx, std::size_t f, support::Chunk chunk,
            bool fill_memo)
{
    FamilyPlan& fam = ctx.families[f];
    const auto& members = ctx.result.families[f].members;
    {
        obs::Span span("pipeline.train");
        for (std::size_t pos = chunk.begin; pos < chunk.end; ++pos)
            train_type(ctx, static_cast<std::size_t>(members[pos]));
    }
    if (!fill_memo || fam.famdist_loaded)
        return;
    obs::Span span("pipeline.distances");
    const std::uint64_t escapes_before = slm::thread_escape_tally();
    divergence::FamilyWords::Scratch scratch;
    for (std::size_t pos = chunk.begin; pos < chunk.end; ++pos)
        fam.memo.fill(pos,
                      *ctx.result.models[static_cast<std::size_t>(
                          members[pos])],
                      scratch);
    fam.escapes += slm::thread_escape_tally() - escapes_before;
}

/** Distance of weighed edge @p e of family @p fam under the configured
 *  metric: from the family's memo under ObservedUnion, else over a word
 *  set built for the pair. */
double
edge_weight(const RunContext& ctx, const FamilyPlan& fam, std::size_t e,
            divergence::FamilyWords::Scratch& scratch)
{
    const ReconstructionResult& result = ctx.result;
    const auto [parent, child] = result.distances[e].first;
    const auto p = static_cast<std::size_t>(parent);
    const auto c = static_cast<std::size_t>(child);
    double weight = 0.0;
    if (ctx.observed_union) {
        weight = fam.memo.distance(
            ctx.config.metric,
            static_cast<std::size_t>(ctx.member_pos[p]),
            static_cast<std::size_t>(ctx.member_pos[c]), scratch);
    } else {
        const divergence::WordSet words = divergence::build_word_set(
            ctx.config.words, result.type_sequences[p],
            result.type_sequences[c], result.models[p].get(),
            ctx.alphabet_size);
        if (!words.empty()) {
            weight = divergence::pair_distance(ctx.config.metric,
                                               *result.models[p],
                                               *result.models[c], words);
        }
    }
    // Solved-subtype agreement: cheapen the edge without ever touching
    // the zero-cost floor forced edges stand on.
    if (ctx.edge_discounted[e] && weight > 0.0)
        weight *= ctx.config.typeinf_discount;
    return weight;
}

/** Distance task: weigh family @p f's slots in @p chunk (relative to
 *  its edge_begin), unless its "famdist" probe already filled them. */
void
weigh_chunk(RunContext& ctx, std::size_t f, support::Chunk chunk)
{
    FamilyPlan& fam = ctx.families[f];
    obs::Span span("pipeline.distances");
    if (fam.famdist_loaded)
        return;
    const auto before = divergence::thread_pair_tally();
    const std::uint64_t escapes_before = slm::thread_escape_tally();
    divergence::FamilyWords::Scratch scratch;
    for (std::size_t e = fam.edge_begin + chunk.begin;
         e < fam.edge_begin + chunk.end; ++e)
        ctx.result.distances[e].second = edge_weight(ctx, fam, e, scratch);
    const auto after = divergence::thread_pair_tally();
    fam.pairs += after.pairs - before.pairs;
    fam.words += after.words - before.words;
    fam.escapes += slm::thread_escape_tally() - escapes_before;
}

/** Content key of one "famsolve" artifact: everything solve_family()
 *  reads, in its order -- family size, then every candidate's parent
 *  and child positions, kind and (weighed) exact distance bits. */
std::uint64_t
famsolve_content(const RunContext& ctx, const FamilyPlan& fam, int m)
{
    std::uint64_t h =
        cache::mix(cache::kFnvSeed, static_cast<std::uint64_t>(m));
    for (const CandidateEdge& edge : fam.candidates) {
        h = cache::mix(h, static_cast<std::uint64_t>(edge.parent));
        h = cache::mix(h, static_cast<std::uint64_t>(edge.child));
        h = cache::mix(h, static_cast<std::uint64_t>(edge.kind));
        if (edge.kind == EdgeKind::Weighed)
            h = cache::mix_double(h, ctx.result.distances[edge.slot].second);
    }
    return h;
}

/** Solve a multi-member family from its candidate table: enumerate
 *  co-optimal forests and majority-filter the ties. A pure function
 *  of its inputs; returns exactly what a "famsolve" hit decodes. */
FamilySolveBlob
solve_family(const RunContext& ctx, const FamilyPlan& fam, int m)
{
    const auto contractions_before = graph::thread_contraction_tally();
    const auto cuts_before = graph::thread_enumerate_cuts().results;
    FamilySolveBlob sol;
    sol.m = m;
    // Structural ambiguity: is there more than one zero-weight spanning
    // forest over all feasible edges, pruned ones too? Decided exactly,
    // with no search (graph/ambiguity.h).
    {
        obs::Span span("graph.ambiguity");
        std::vector<std::pair<int, int>> feasible;
        feasible.reserve(fam.candidates.size());
        for (const CandidateEdge& edge : fam.candidates)
            feasible.emplace_back(edge.parent, edge.child);
        sol.structurally_ambiguous =
            graph::has_multiple_min_forests(m, feasible);
    }

    // Forced edges cost nothing, so the optimizer never prefers
    // re-rooting a chain over honoring them.
    graph::Digraph weighted(m);
    for (const CandidateEdge& edge : fam.candidates) {
        if (edge.kind != EdgeKind::Pruned) {
            weighted.add_edge(edge.parent, edge.child,
                              edge.kind == EdgeKind::Forced
                                  ? 0.0
                                  : ctx.result.distances[edge.slot].second);
        }
    }
    graph::EnumerateConfig ties;
    ties.epsilon = ctx.config.tie_epsilon;
    ties.max_results = ctx.config.max_alternatives;
    std::vector<graph::Arborescence> forests;
    {
        obs::Span span("graph.enumerate");
        forests = graph::enumerate_min_forests(weighted, ties);
    }
    sol.cooptimal = forests.size();
    {
        obs::Span span("graph.majority");
        detail::majority_filter(forests);
    }
    ROCK_ASSERT(!forests.empty(), "no forest survived filtering");
    sol.alternative_cuts =
        graph::thread_enumerate_cuts().results - cuts_before;
    // A capped set keeps only its optimum, by the cut, not by a vote.
    sol.resolved =
        sol.alternative_cuts ? 0 : sol.cooptimal - forests.size();
    for (auto& forest : forests)
        sol.alternatives.push_back(std::move(forest.parent));
    sol.contractions =
        graph::thread_contraction_tally() - contractions_before;
    return sol;
}

/**
 * Solve task, the end of family @p f's chain: store fresh weights,
 * take the solution from the store or solve it, then add the family's
 * work counts to the registry and map member positions to type
 * indices on one path for cache hits and misses alike.
 */
void
solve_stage(RunContext& ctx, std::size_t f)
{
    FamilyPlan& fam = ctx.families[f];
    FamilyResult& out = ctx.result.families[f];
    const int m = static_cast<int>(out.members.size());
    // Every distance chunk has read the memo: free it before the solve
    // allocates.
    fam.memo.clear();
    obs::Span span("pipeline.arborescence");
    if (ctx.store && fam.edge_end > fam.edge_begin &&
        !fam.famdist_loaded) {
        FamilyDistanceBlob dist{{}, fam.pairs, fam.words, fam.escapes};
        dist.weights.reserve(fam.edge_end - fam.edge_begin);
        for (std::size_t e = fam.edge_begin; e < fam.edge_end; ++e)
            dist.weights.push_back(ctx.result.distances[e].second);
        cache::ByteWriter w;
        encode_family_distances(dist, w);
        ctx.store->put(
            {kFamilyDistanceKind, fam.famdist_content, ctx.fp_dist},
            w.take());
    }

    obs::Registry& reg = obs::Registry::global();
    reg.counter("arborescence.families_solved").add();
    FamilySolveBlob sol;
    if (m == 1) {
        reg.counter("arborescence.singleton_families").add();
        sol.alternatives.push_back({-1});
    } else {
        cache::ArtifactKey key{kFamilySolveKind, 0, ctx.fp_solve};
        std::vector<std::uint8_t> blob;
        bool hit = false;
        if (ctx.store) {
            key.content = famsolve_content(ctx, fam, m);
            if (ctx.store->get(key, blob)) {
                cache::ByteReader in(blob);
                hit = decode_family_solution(in, &sol) && sol.m == m;
            }
        }
        if (!hit) {
            sol = solve_family(ctx, fam, m);
            if (ctx.store) {
                cache::ByteWriter w;
                encode_family_solution(sol, w);
                ctx.store->put(key, w.take());
            }
        }
        reg.counter("arborescence.cooptimal_forests").add(sol.cooptimal);
        reg.counter("arborescence.ties_majority_resolved").add(sol.resolved);
        if (sol.structurally_ambiguous)
            reg.counter("arborescence.structurally_ambiguous").add();
    }
    // The family's per-thread work tallies and budget cuts, just
    // measured or decoded from its cache hits. A counter appears with
    // the first event it counts.
    auto add_work = [&reg](const char* name, std::uint64_t n) {
        if (n > 0)
            reg.counter(name).add(n);
    };
    add_work("divergence.pairs", fam.pairs);
    add_work("divergence.words", fam.words);
    add_work("slm.escapes", fam.escapes);
    add_work("graph.edmonds.contractions", sol.contractions);
    add_work("budget.max_alternatives", sol.alternative_cuts);

    out.structurally_ambiguous = sol.structurally_ambiguous;
    for (auto& parents : sol.alternatives) {
        for (int& p : parents)
            p = p < 0 ? -1 : out.members[static_cast<std::size_t>(p)];
        out.alternatives.push_back(std::move(parents));
    }
}

/**
 * The pipelined tail: one task chain per family, [word table ->] train
 * chunks -> distance chunks -> solve, run as one dependency DAG on the
 * pool. The fixed chunk fan-out keeps the task graph (and
 * threadpool.items) independent of the pool size, and cache hits only
 * turn tasks into early returns, so it is independent of the cache's
 * state too.
 */
void
run_family_chains(RunContext& ctx)
{
    constexpr std::size_t kTaskFanout = 16;
    std::vector<support::Task> tasks;
    for (std::size_t f = 0; f < ctx.families.size(); ++f) {
        const FamilyPlan& fam = ctx.families[f];
        const auto& members = ctx.result.families[f].members;
        const std::size_t num_edges = fam.edge_end - fam.edge_begin;
        const bool use_memo = ctx.observed_union && num_edges > 0;

        std::vector<std::size_t> table_ids;
        if (use_memo) {
            table_ids.push_back(tasks.size());
            tasks.push_back({[&ctx, f] { intern_family(ctx, f); }, {}});
        }
        std::vector<std::uint64_t> member_costs(members.size());
        for (std::size_t pos = 0; pos < members.size(); ++pos)
            member_costs[pos] = ctx.type_costs[static_cast<std::size_t>(
                members[pos])];
        // Edge cost ~ word-set size x per-word model walks; both scale
        // with the two types' sequence volume.
        std::vector<std::uint64_t> edge_costs(num_edges);
        for (std::size_t i = 0; i < num_edges; ++i) {
            const auto [p, c] =
                ctx.result.distances[fam.edge_begin + i].first;
            edge_costs[i] = ctx.type_costs[static_cast<std::size_t>(p)] +
                            ctx.type_costs[static_cast<std::size_t>(c)];
        }

        support::ChunkPlan plan;
        plan.costs = member_costs.data();
        std::vector<std::size_t> train_ids;
        for (const support::Chunk& chunk :
             support::plan_chunks(members.size(), kTaskFanout, plan)) {
            train_ids.push_back(tasks.size());
            tasks.push_back({[&ctx, f, chunk, use_memo] {
                                 train_chunk(ctx, f, chunk, use_memo);
                             },
                             table_ids});
        }
        plan.costs = edge_costs.data();
        std::vector<std::size_t> dist_ids;
        for (const support::Chunk& chunk :
             support::plan_chunks(num_edges, kTaskFanout, plan)) {
            dist_ids.push_back(tasks.size());
            tasks.push_back(
                {[&ctx, f, chunk] { weigh_chunk(ctx, f, chunk); },
                 train_ids});
        }
        tasks.push_back({[&ctx, f] { solve_stage(ctx, f); },
                         dist_ids.empty() ? train_ids : dist_ids});
    }
    ctx.pool.run_tasks(tasks);
}

/** Serial merge (deterministic order), the selected hierarchy and the
 *  manifest that vouches for every artifact this run stored. */
void
merge_results(RunContext& ctx)
{
    ReconstructionResult& result = ctx.result;
    {
        obs::Span span("pipeline.arborescence");
        for (const FamilyResult& fam : result.families)
            result.ambiguous_families += fam.structurally_ambiguous;
    }

    std::vector<int> first(result.families.size(), 0);
    result.hierarchy = result.hierarchy_with(first);

    if (ctx.store && !ctx.warm) {
        cache::ByteWriter w;
        w.u64(ctx.manifest_content);
        ctx.store->put(
            {kManifestKind, ctx.manifest_content, ctx.manifest_fp},
            w.take());
    }
}

/** StageTiming of the call whose "pipeline.reconstruct" span is
 *  @p call: one pass over that span's own subtree, so spans of other
 *  calls sharing the trace never count. */
StageTiming
stage_timing(const obs::Span& call)
{
    const std::map<std::string, double> ms = call.subtree_wall_ms();
    auto stage = [&ms](const char* name) {
        const auto it = ms.find(name);
        return it == ms.end() ? 0.0 : it->second;
    };
    StageTiming t;
    t.cfg_ms = stage("pipeline.cfg");
    t.verify_ms = stage("pipeline.verify");
    t.analyze_ms = stage("pipeline.analyze");
    t.structural_ms = stage("pipeline.structural");
    t.typeinf_ms = stage("pipeline.typeinf");
    t.train_ms = stage("pipeline.train");
    t.distances_ms = stage("pipeline.distances");
    t.arborescence_ms = stage("pipeline.arborescence");
    t.total_ms = stage("pipeline.reconstruct");
    return t;
}

} // namespace

void
DistanceTable::append(int parent, int child)
{
    const auto c = static_cast<std::size_t>(child);
    if (c >= blocks_.size())
        blocks_.resize(c + 1, {0, 0});
    auto& [first, last] = blocks_[c];
    if (first == last)
        first = last = entries_.size();
    ROCK_ASSERT(last == entries_.size() &&
                    (first == last || entries_.back().first.first < parent),
                "a child's edges must be appended together, parents "
                "ascending");
    entries_.push_back({{parent, child}, 0.0});
    last = entries_.size();
}

DistanceTable::const_iterator
DistanceTable::find(const key_type& key) const
{
    const auto c = static_cast<std::size_t>(key.second);
    if (key.second < 0 || c >= blocks_.size())
        return end();
    const auto last =
        begin() + static_cast<std::ptrdiff_t>(blocks_[c].second);
    const auto it = std::partition_point(
        begin() + static_cast<std::ptrdiff_t>(blocks_[c].first), last,
        [&key](const value_type& e) { return e.first.first < key.first; });
    return it != last && it->first == key ? it : end();
}

double
DistanceTable::at(const key_type& key) const
{
    const auto it = find(key);
    if (it == end())
        throw std::out_of_range(support::format(
            "no distance for edge %d -> %d", key.first, key.second));
    return it->second;
}

Hierarchy
ReconstructionResult::hierarchy_with(const std::vector<int>& pick) const
{
    ROCK_ASSERT(pick.size() == families.size(),
                "one pick per family required");
    Hierarchy h(structural.types);
    for (std::size_t f = 0; f < families.size(); ++f) {
        const FamilyResult& fam = families[f];
        int choice = pick[f];
        ROCK_ASSERT(choice >= 0 &&
                    choice < static_cast<int>(fam.alternatives.size()),
                    "alternative pick out of range");
        const auto& parents =
            fam.alternatives[static_cast<std::size_t>(choice)];
        for (std::size_t m = 0; m < fam.members.size(); ++m)
            h.set_parent(fam.members[m], parents[m]);
    }
    // Multiple inheritance: a secondary vtable's parent is an extra
    // parent of its primary type, unless it already descends from
    // that type (the cycle guard relaxed_hierarchy applies too).
    for (const auto& [sec, prim] : structural.secondary_of) {
        int p = h.parent(sec);
        if (p >= 0 && p != prim && h.successors(prim).count(p) == 0)
            h.add_extra_parent(prim, p);
    }
    return h;
}

namespace {

/** "group.field" for the first entry of @p same that is false, or
 *  @p group alone when every named field agrees. */
std::string
name_field(const std::string& group,
           std::initializer_list<std::pair<const char*, bool>> same)
{
    for (const auto& [field, equal] : same) {
        if (!equal)
            return group + "." + field;
    }
    return group;
}

} // namespace

std::string
first_difference(const ReconstructionResult& a,
                 const ReconstructionResult& b)
{
    using support::format;

    if (a.hierarchy.types() != b.hierarchy.types())
        return "hierarchy.types";
    for (int v = 0; v < a.hierarchy.size(); ++v) {
        if (a.hierarchy.parent(v) != b.hierarchy.parent(v) ||
            a.hierarchy.parents(v) != b.hierarchy.parents(v))
            return format("hierarchy.parents(%d)", v);
    }

    if (a.families.size() != b.families.size())
        return "families.size";
    for (std::size_t f = 0; f < a.families.size(); ++f) {
        const FamilyResult& x = a.families[f];
        const FamilyResult& y = b.families[f];
        if (x != y)
            return name_field(
                format("families[%zu]", f),
                {{"family_id", x.family_id == y.family_id},
                 {"members", x.members == y.members},
                 {"alternatives", x.alternatives == y.alternatives},
                 {"structurally_ambiguous",
                  x.structurally_ambiguous == y.structurally_ambiguous}});
    }
    if (a.ambiguous_families != b.ambiguous_families)
        return "ambiguous_families";

    // Entries in table order; weights compared as bit patterns, so
    // -0.0 vs 0.0 or two NaN payloads count as different. Where the
    // keys part, the first one only one side holds is named.
    const DistanceTable& da = a.distances;
    const DistanceTable& db = b.distances;
    for (std::size_t i = 0; i < std::max(da.size(), db.size()); ++i) {
        std::pair<int, int> key;
        if (i == da.size() || i == db.size())
            key = (i == da.size() ? db : da)[i].first;
        else if (da[i].first != db[i].first)
            key = db.find(da[i].first) == db.end() ? da[i].first
                                                    : db[i].first;
        else if (std::bit_cast<std::uint64_t>(da[i].second) !=
                 std::bit_cast<std::uint64_t>(db[i].second))
            key = da[i].first;
        else
            continue;
        return format("distances(%d,%d)", key.first, key.second);
    }

    const auto& s = a.structural;
    const auto& t = b.structural;
    if (s != t)
        return name_field(
            "structural",
            {{"types", s.types == t.types},
             {"family", s.family == t.family},
             {"possible_parents", s.possible_parents == t.possible_parents},
             {"forced_parents", s.forced_parents == t.forced_parents},
             {"parent_counts", s.parent_counts == t.parent_counts},
             {"secondary_of", s.secondary_of == t.secondary_of}});

    const auto& ti = a.typeinf;
    const auto& tj = b.typeinf;
    if (ti != tj)
        return name_field(
            "typeinf",
            {{"types", ti.types == tj.types},
             {"constraints", ti.constraints == tj.constraints},
             {"sketches", ti.sketches == tj.sketches},
             {"direct_edges", ti.direct_edges == tj.direct_edges},
             {"subtype_edges", ti.subtype_edges == tj.subtype_edges},
             {"inconsistencies",
              ti.inconsistencies == tj.inconsistencies},
             {"var_type", ti.var_type == tj.var_type},
             {"stats", ti.stats == tj.stats}});

    const auto& ai = a.analysis;
    const auto& aj = b.analysis;
    if (ai != aj)
        return name_field(
            "analysis",
            {{"vtables", ai.vtables == aj.vtables},
             {"type_tracelets", ai.type_tracelets == aj.type_tracelets},
             {"evidence", ai.evidence == aj.evidence},
             {"ctor_types", ai.ctor_types == aj.ctor_types},
             {"total_paths", ai.total_paths == aj.total_paths}});

    if (a.diagnostics != b.diagnostics)
        return "diagnostics";
    if (a.alphabet != b.alphabet)
        return "alphabet";
    if (a.type_sequences != b.type_sequences)
        return "type_sequences";

    // A warm run restores models from snapshots (and its distances
    // from the cache), so nothing above would notice a bad restore.
    // A snapshot is never empty, so a null model compares as no bytes.
    auto bytes = [](const std::unique_ptr<slm::LanguageModel>& model) {
        cache::ByteWriter out;
        if (model)
            slm::snapshot_model(*model, out);
        return out.take();
    };
    if (a.models.size() != b.models.size())
        return "models.size";
    for (std::size_t m = 0; m < a.models.size(); ++m) {
        if (bytes(a.models[m]) != bytes(b.models[m]))
            return format("models[%zu]", m);
    }
    return "";
}

ReconstructionResult
reconstruct(const bir::BinaryImage& image, const RockConfig& config)
{
    support::ThreadPool pool(support::resolve_threads(config.threads));
    return reconstruct(image, config, pool);
}

ReconstructionResult
reconstruct(const bir::BinaryImage& image, const RockConfig& config,
            support::ThreadPool& pool)
{
    ReconstructionResult result;
    RunContext ctx(image, config, result, pool);
    // Every stage runs under a "pipeline.<stage>" span below this one,
    // pool tasks included; StageTiming reads this call's subtree only.
    obs::Span total_span("pipeline.reconstruct");
    obs::Registry::global().counter("pipeline.runs").add();

    open_cache(ctx);
    run_front_end(ctx);
    {
        obs::Span span("pipeline.train");
        intern_alphabet(ctx);
    }
    {
        obs::Span span("pipeline.distances");
        plan_candidates(ctx);
    }
    run_family_chains(ctx);
    merge_results(ctx);

    total_span.end();
    result.timing = stage_timing(total_span);

    const std::size_t n = result.structural.types.size();
    obs::Registry& reg = obs::Registry::global();
    reg.counter("pipeline.types").add(n);
    reg.counter("pipeline.families").add(result.families.size());
    reg.counter("pipeline.ambiguous_families").add(
        static_cast<std::uint64_t>(result.ambiguous_families));

    ROCK_LOG_INFO << "reconstruct: " << n << " types, "
                  << result.families.size() << " families ("
                  << result.ambiguous_families
                  << " behaviorally resolved), " << pool.size()
                  << " threads";
    return result;
}

} // namespace rock::core
