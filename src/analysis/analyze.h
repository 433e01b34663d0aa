/**
 * @file
 * Whole-image behavioral analysis driver.
 *
 * Runs the two-phase pipeline over every function of a stripped image:
 *
 *  Phase A, the ctor probe, discovers constructor/destructor-like
 *  functions (functions that store a vtable address into their first
 *  argument) by executing every function with arg0 modeled as an
 *  object until a path answers; it builds no tracelets.
 *
 *  Phase B re-executes with the full `this`-callee set (vtable members
 *  + ctor-like functions) to classify argument-passing events
 *  correctly, and collects the final tracelets and construction
 *  evidence.
 *
 * Both phases are strictly intra-procedural and embarrassingly
 * parallel across functions (paper Section 3.2 scalability argument).
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/event.h"
#include "analysis/symexec.h"
#include "analysis/vtable_scan.h"
#include "bir/image.h"
#include "cfg/cfg_cache.h"

namespace rock::cache {
class ArtifactCache;
}

namespace rock::support {
class ThreadPool;
}

namespace rock::analysis {

/** Combined output of the behavioral analysis over one image. */
struct AnalysisResult {
    /** Discovered binary types. */
    std::vector<VTableInfo> vtables;
    /** TT(t): tracelets per type, keyed by vtable address. */
    std::map<std::uint32_t, std::vector<Tracelet>> type_tracelets;
    /** Construction evidence pooled over all functions. */
    std::vector<ObjectEvidence> evidence;
    /**
     * Ctor-like functions: address -> primary vtable they install at
     * object offset 0.
     */
    std::map<std::uint32_t, std::uint32_t> ctor_types;
    /** Total completed symbolic paths (diagnostics). */
    long total_paths = 0;

    bool operator==(const AnalysisResult&) const = default;
};

/**
 * The phase-B `this`-callee set of @p result, sorted ascending: every
 * function referenced from a discovered vtable plus every ctor-like
 * function. This is the set both phase B and any mirror of it
 * (rockvm's dynamic side) must treat as taking `this` first.
 */
std::vector<std::uint32_t> this_callee_set(const AnalysisResult& result);

/**
 * Fold every knob of @p config except `threads` into the cache hash
 * @p h (cache::mix). The one place both the "symexec" artifact
 * fingerprints and the run manifest (rock/artifacts.h) hash a
 * SymExecConfig, so a new knob reaches both keys or neither.
 */
std::uint64_t mix_symexec_config(std::uint64_t h,
                                 const SymExecConfig& config);

/** Analyze @p image: discover vtables, extract tracelets + evidence. */
AnalysisResult analyze(const bir::BinaryImage& image,
                       const SymExecConfig& config = {});

/** As below, on a pool of resolve_threads(config.threads). */
AnalysisResult analyze(const bir::BinaryImage& image,
                       const SymExecConfig& config,
                       cfg::CfgCache& cache,
                       const std::shared_ptr<cache::ArtifactCache>&
                           artifacts = nullptr);

/**
 * Analyze @p image sharing @p cache (built on demand): function bodies
 * come from the cached CFG slots instead of being re-decoded per
 * phase, and the per-function sweeps run on @p pool, cost-chunked by
 * instruction count (config.threads is not read). The pipeline passes
 * the same cache the verify stage built and its own pool.
 *
 * When @p artifacts is non-null, each function's per-phase result --
 * the ctor probe's answer, phase B's FunctionAnalysis -- is memoized
 * in it under kind "symexec", keyed by the function's body hash +
 * entry address + phase and fingerprinted by the image digest and
 * every SymExecConfig knob except `threads` (warm hits are
 * bit-identical across thread counts). A warm re-analysis of the same
 * image then skips the executor entirely.
 */
AnalysisResult analyze(const bir::BinaryImage& image,
                       const SymExecConfig& config,
                       cfg::CfgCache& cache,
                       const std::shared_ptr<cache::ArtifactCache>&
                           artifacts,
                       support::ThreadPool& pool);

} // namespace rock::analysis
