#include "analysis/analyze.h"

#include <algorithm>
#include <array>
#include <optional>

#include "cache/artifact_cache.h"
#include "obs/metrics.h"
#include "support/log.h"
#include "support/parallel.h"

namespace rock::analysis {

namespace {

// ---- "symexec" artifact codec -----------------------------------------
// Payload: one FunctionAnalysis. The encoding iterates every container
// in its natural (sorted / insertion) order, so encode(decode(x)) is
// byte-identical and warm results replay a cold run bit for bit.

void
encode_tracelet_list(const std::vector<Tracelet>& list,
                     cache::ByteWriter& w)
{
    w.u32(static_cast<std::uint32_t>(list.size()));
    for (const Tracelet& tracelet : list) {
        w.u32(static_cast<std::uint32_t>(tracelet.size()));
        for (const Event& event : tracelet) {
            w.u8(static_cast<std::uint8_t>(event.kind));
            w.u32(event.index);
            w.u32(event.aux);
        }
    }
}

bool
decode_tracelet_list(cache::ByteReader& r, std::vector<Tracelet>& out)
{
    std::uint32_t n = r.u32();
    if (!r.ok() || n > r.remaining())
        return false;
    out.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t len = r.u32();
        if (!r.ok() || len > r.remaining())
            return false;
        Tracelet& tracelet = out[i];
        tracelet.resize(len);
        for (std::uint32_t k = 0; k < len; ++k) {
            std::uint8_t kind = r.u8();
            if (kind > static_cast<std::uint8_t>(EventKind::CallDirect))
                return false;
            tracelet[k].kind = static_cast<EventKind>(kind);
            tracelet[k].index = r.u32();
            tracelet[k].aux = r.u32();
        }
    }
    return r.ok();
}

void
encode_function_analysis(const FunctionAnalysis& fa,
                         cache::ByteWriter& w)
{
    w.i32(fa.paths);
    w.u32(static_cast<std::uint32_t>(fa.tracelets.size()));
    for (const auto& [type, list] : fa.tracelets) {
        w.u32(type);
        encode_tracelet_list(list, w);
    }
    encode_tracelet_list(fa.untyped_this, w);
    w.u32(static_cast<std::uint32_t>(fa.evidence.size()));
    for (const ObjectEvidence& ev : fa.evidence) {
        w.u8(ev.from_this_param ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(ev.vptr_stores.size()));
        for (const auto& [off, vt] : ev.vptr_stores) {
            w.i32(off);
            w.u32(vt);
        }
        w.u32(static_cast<std::uint32_t>(ev.this_calls.size()));
        for (const auto& [off, callee] : ev.this_calls) {
            w.i32(off);
            w.u32(callee);
        }
    }
}

bool
decode_function_analysis(const std::vector<std::uint8_t>& blob,
                         FunctionAnalysis& fa)
{
    cache::ByteReader r(blob);
    fa = FunctionAnalysis{};
    fa.paths = r.i32();
    std::uint32_t num_types = r.u32();
    if (!r.ok() || num_types > r.remaining())
        return false;
    for (std::uint32_t i = 0; i < num_types; ++i) {
        std::uint32_t type = r.u32();
        std::vector<Tracelet> list;
        if (!decode_tracelet_list(r, list))
            return false;
        auto [it, inserted] =
            fa.tracelets.emplace(type, std::move(list));
        if (!inserted)
            return false; // duplicate key: not a valid encoding
    }
    if (!decode_tracelet_list(r, fa.untyped_this))
        return false;
    std::uint32_t num_evidence = r.u32();
    if (!r.ok() || num_evidence > r.remaining())
        return false;
    fa.evidence.resize(num_evidence);
    for (std::uint32_t i = 0; i < num_evidence; ++i) {
        ObjectEvidence& ev = fa.evidence[i];
        ev.from_this_param = r.u8() != 0;
        std::uint32_t num_stores = r.u32();
        if (!r.ok() || num_stores > r.remaining())
            return false;
        std::int32_t prev_off = 0;
        bool first = true;
        for (std::uint32_t k = 0; k < num_stores; ++k) {
            std::int32_t off = r.i32();
            std::uint32_t vt = r.u32();
            if (!first && off <= prev_off)
                return false; // map keys must be strictly ascending
            first = false;
            prev_off = off;
            ev.vptr_stores.emplace(off, vt);
        }
        std::uint32_t num_calls = r.u32();
        if (!r.ok() || num_calls > r.remaining())
            return false;
        ev.this_calls.resize(num_calls);
        for (std::uint32_t k = 0; k < num_calls; ++k) {
            ev.this_calls[k].first = r.i32();
            ev.this_calls[k].second = r.u32();
        }
    }
    return r.at_end();
}

/** Fingerprint shared by every symexec artifact of one (image,
 *  config) pair -- every knob except `threads`. */
std::uint64_t
symexec_fingerprint(const bir::BinaryImage& image,
                    const SymExecConfig& config)
{
    std::uint64_t fp = cache::kFnvSeed;
    fp = cache::mix(fp, cache::kSchemaVersion);
    fp = cache::mix(fp, cfg::image_digest(image));
    return mix_symexec_config(fp, config);
}

/** Fold phase B's `this`-callee set into @p fp (sorted, so this is
 *  deterministic). */
std::uint64_t
mix_callees(std::uint64_t fp, const std::vector<std::uint32_t>& callees)
{
    fp = cache::mix(fp, callees.size());
    for (std::uint32_t fn : callees)
        fp = cache::mix(fp, fn);
    return fp;
}

/** Generation of the ctor probe's "symexec" entries. A probe entry
 *  holds only the probe's answer, so its fingerprint folds this in and
 *  a store filled by an earlier generation serves it nothing (1: the
 *  whole phase-A FunctionAnalysis, keyed by the seed callee set; 2:
 *  the answer alone). */
constexpr std::uint64_t kCtorProbeGeneration = 2;

/** Content key of one function's "symexec" entry. It covers the body
 *  bytes AND the entry address: symbolic results depend on the
 *  function's own address (vtable membership, relative jump
 *  decoding), so byte-identical bodies at different addresses get
 *  distinct entries. */
cache::ArtifactKey
symexec_key(std::uint64_t body_hash, std::uint32_t addr, int phase,
            std::uint64_t fp)
{
    std::uint64_t content = cache::mix(cache::kFnvSeed, body_hash);
    content = cache::mix(content, addr);
    content = cache::mix(content, static_cast<std::uint64_t>(phase));
    return cache::ArtifactKey{"symexec", content, fp};
}

/**
 * Serve a value from @p artifacts under @p key or compute it with
 * @p run and record it: @p decode reads a blob into its argument,
 * @p encode writes the value. Without a store, just @p run.
 */
template <class T, class Run, class Decode, class Encode>
T
cached(cache::ArtifactCache* artifacts, const cache::ArtifactKey& key,
       Run&& run, Decode&& decode, Encode&& encode)
{
    if (artifacts == nullptr)
        return run();
    std::vector<std::uint8_t> blob;
    T value;
    if (artifacts->get(key, blob) && decode(blob, value))
        return value;
    value = run();
    cache::ByteWriter w;
    encode(value, w);
    artifacts->put(key, w.take());
    return value;
}

/** A probe entry: one byte, 1 when a vtable follows. */
void
encode_probe(const std::optional<std::uint32_t>& vtable,
             cache::ByteWriter& w)
{
    w.u8(vtable ? 1 : 0);
    if (vtable)
        w.u32(*vtable);
}

bool
decode_probe(const std::vector<std::uint8_t>& blob,
             std::optional<std::uint32_t>& vtable)
{
    cache::ByteReader r(blob);
    std::uint8_t tag = r.u8();
    if (tag > 1)
        return false;
    vtable.reset();
    if (tag == 1)
        vtable = r.u32();
    return r.at_end();
}

/** Stable metric-name suffix per event kind (docs/OBSERVABILITY.md
 *  catalog: analysis.events.<kind>). */
const char*
event_kind_metric(EventKind kind)
{
    switch (kind) {
    case EventKind::VirtCall: return "virt_call";
    case EventKind::ReadField: return "read_field";
    case EventKind::WriteField: return "write_field";
    case EventKind::PassedThis: return "passed_this";
    case EventKind::PassedArg: return "passed_arg";
    case EventKind::Returned: return "returned";
    case EventKind::CallDirect: return "call_direct";
    }
    return "unknown";
}

/** Work-item counts only -- everything here is a pure function of the
 *  image, so the totals are identical for every thread count. */
void
record_metrics(const AnalysisResult& result, std::size_t functions)
{
    obs::Registry& reg = obs::Registry::global();
    reg.counter("analysis.functions").add(functions);
    // Both phases symbolically execute every function.
    reg.counter("analysis.functions_symexec").add(2 * functions);
    reg.counter("analysis.vtables").add(result.vtables.size());
    reg.counter("analysis.ctor_like").add(result.ctor_types.size());
    reg.counter("analysis.evidence_records")
        .add(result.evidence.size());
    reg.counter("analysis.paths")
        .add(static_cast<std::uint64_t>(result.total_paths));

    std::uint64_t tracelets = 0;
    constexpr std::size_t kKinds =
        static_cast<std::size_t>(EventKind::CallDirect) + 1;
    std::array<std::uint64_t, kKinds> events{};
    for (const auto& [type, list] : result.type_tracelets) {
        tracelets += list.size();
        for (const Tracelet& tracelet : list) {
            for (const Event& event : tracelet)
                ++events[static_cast<std::size_t>(event.kind)];
        }
    }
    reg.counter("analysis.tracelets").add(tracelets);
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
        if (events[kind] == 0)
            continue;
        reg.counter(std::string("analysis.events.") +
                    event_kind_metric(static_cast<EventKind>(kind)))
            .add(events[kind]);
    }
}

} // namespace

std::uint64_t
mix_symexec_config(std::uint64_t h, const SymExecConfig& config)
{
    h = cache::mix(h, static_cast<std::uint64_t>(config.tracelet_len));
    h = cache::mix(h, static_cast<std::uint64_t>(config.max_paths));
    h = cache::mix(h, static_cast<std::uint64_t>(config.max_steps));
    h = cache::mix(h, static_cast<std::uint64_t>(config.max_backjumps));
    h = cache::mix(h, config.sliding_windows ? 1 : 0);
    h = cache::mix(h, config.attribute_shared_methods_to_all ? 1 : 0);
    return h; // config.threads deliberately excluded
}

std::vector<std::uint32_t>
this_callee_set(const AnalysisResult& result)
{
    std::vector<std::uint32_t> callees;
    for (const auto& vt : result.vtables)
        callees.insert(callees.end(), vt.slots.begin(), vt.slots.end());
    for (const auto& [fn, vt] : result.ctor_types)
        callees.push_back(fn);
    std::sort(callees.begin(), callees.end());
    callees.erase(std::unique(callees.begin(), callees.end()),
                  callees.end());
    return callees;
}

AnalysisResult
analyze(const bir::BinaryImage& image, const SymExecConfig& config)
{
    cfg::CfgCache cache(image);
    return analyze(image, config, cache);
}

AnalysisResult
analyze(const bir::BinaryImage& image, const SymExecConfig& config,
        cfg::CfgCache& cache,
        const std::shared_ptr<cache::ArtifactCache>& artifacts)
{
    support::ThreadPool pool(support::resolve_threads(config.threads));
    return analyze(image, config, cache, artifacts, pool);
}

AnalysisResult
analyze(const bir::BinaryImage& image, const SymExecConfig& config,
        cfg::CfgCache& cache,
        const std::shared_ptr<cache::ArtifactCache>& artifacts,
        support::ThreadPool& pool)
{
    AnalysisResult result;
    const std::size_t num_functions = image.functions.size();

    // One decode per function, served from the shared CFG cache (the
    // verify stage already paid for the recovery when the pipeline
    // runs with verification on): the vtable scan and both phases
    // read these bodies. Copied in table order, so a corrupt body
    // fails in BinaryImage::decode_function at the first one.
    cache.build_all(pool);
    std::vector<std::vector<bir::Instr>> bodies(num_functions);
    for (std::size_t i = 0; i < num_functions; ++i)
        bodies[i] = cache.body(i);
    result.vtables = scan_vtables(image, bodies);

    SymbolicExecutor exec(image, result.vtables, config);

    // Each function writes only its own output slot; slots are merged
    // in function order below, so the result is identical for any
    // thread count (paper Section 3.2: the analysis is strictly
    // intra-procedural, hence embarrassingly parallel). Sweeps are
    // chunked by instruction count so uneven corpora still balance.
    support::ChunkPlan plan;
    plan.costs = cache.costs().data();

    // Memoization context: one fingerprint for the whole sweep; the
    // probe's carries its generation, phase B's its callee set (which
    // depends on the probe's ctor discoveries).
    cache::ArtifactCache* store = artifacts.get();
    const std::uint64_t fp_base =
        store ? symexec_fingerprint(image, config) : 0;

    // ---- Phase A: the ctor probe ---------------------------------------
    // A function is ctor-like when, executed with its first argument
    // modeled as an object, that object ends up with a vtable address
    // stored at offset 0 (SymbolicExecutor::probe_ctor).
    const std::uint64_t fp_a =
        store ? cache::mix(fp_base, kCtorProbeGeneration) : 0;
    std::vector<std::optional<std::uint32_t>> ctor_vtable(num_functions);
    pool.parallel_for(num_functions, plan, [&](std::size_t i) {
        const bir::FunctionEntry& fn = image.functions[i];
        ctor_vtable[i] = cached<std::optional<std::uint32_t>>(
            store,
            symexec_key(cache.content_hash(i), fn.addr, /*phase=*/0,
                        fp_a),
            [&] { return exec.probe_ctor(fn, bodies[i]); }, decode_probe,
            encode_probe);
    });
    for (std::size_t i = 0; i < num_functions; ++i) {
        if (ctor_vtable[i])
            result.ctor_types[image.functions[i].addr] = *ctor_vtable[i];
    }

    // ---- Phase B: final tracelets + evidence ---------------------------
    const std::vector<std::uint32_t> full_callees =
        this_callee_set(result);

    const std::uint64_t fp_b =
        store ? mix_callees(fp_base, full_callees) : 0;
    std::vector<FunctionAnalysis> phase_b(num_functions);
    pool.parallel_for(num_functions, plan, [&](std::size_t i) {
        const bir::FunctionEntry& fn = image.functions[i];
        bool arg0_is_object = std::binary_search(
            full_callees.begin(), full_callees.end(), fn.addr);
        phase_b[i] = cached<FunctionAnalysis>(
            store,
            symexec_key(cache.content_hash(i), fn.addr, /*phase=*/1,
                        fp_b),
            [&] {
                return exec.run(fn, full_callees, arg0_is_object,
                                bodies[i]);
            },
            decode_function_analysis, encode_function_analysis);
    });
    for (std::size_t i = 0; i < num_functions; ++i) {
        FunctionAnalysis& fa = phase_b[i];
        result.total_paths += fa.paths;
        for (auto& [type, tracelets] : fa.tracelets) {
            auto& out = result.type_tracelets[type];
            out.insert(out.end(),
                       std::make_move_iterator(tracelets.begin()),
                       std::make_move_iterator(tracelets.end()));
        }
        for (auto& ev : fa.evidence)
            result.evidence.push_back(std::move(ev));
    }

    record_metrics(result, num_functions);

    ROCK_LOG_INFO << "analyze: " << result.vtables.size() << " vtables, "
                  << result.type_tracelets.size() << " typed, "
                  << result.evidence.size() << " evidence records, "
                  << result.total_paths << " paths";
    return result;
}

} // namespace rock::analysis
