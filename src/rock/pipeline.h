/**
 * @file
 * The Rock reconstruction pipeline -- the paper's primary
 * contribution, end to end:
 *
 *   stripped image
 *     -> vtable discovery + tracelet extraction      (analysis)
 *     -> family clustering + parent elimination      (structural)
 *     -> subtyping constraints + solved facts        (typeinf)
 *     -> per-type SLM training                       (slm)
 *     -> pairwise DKL weights on feasible edges      (divergence)
 *     -> per-family minimum spanning arborescence    (graph)
 *     -> majority-vote tie filtering                 (Section 4.2.2)
 *     -> Hierarchy (+ co-optimal alternatives)
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "bir/image.h"
#include "cfg/verify.h"
#include "divergence/metrics.h"
#include "graph/enumerate.h"
#include "rock/hierarchy.h"
#include "slm/model.h"
#include "structural/structural.h"
#include "typeinf/typeinf.h"

namespace rock::cache {
class ArtifactCache;
}

namespace rock::support {
class ThreadPool;
}

namespace rock::core {

/** End-to-end configuration of a reconstruction. */
struct RockConfig {
    /** Tracelet extraction bounds. */
    analysis::SymExecConfig symexec;
    /** SLM family/depth (paper: PPM-C, depth 2). */
    slm::ModelConfig slm;
    /** Pairwise metric (paper: DKL(parent || child)). */
    divergence::MetricKind metric = divergence::MetricKind::KL;
    /** Word set the metric integrates over. */
    divergence::WordSetConfig words;
    /** Slack under which two forests count as equally minimal. */
    double tie_epsilon = 1e-6;
    /** Cap on enumerated co-optimal forests per family. */
    int max_alternatives = 64;
    /**
     * Run the rockcheck verifier (cfg/verify.h) over the image before
     * analyzing it and surface its findings in
     * ReconstructionResult::diagnostics. A lint, not a gate: the
     * pipeline reconstructs whatever it can either way. On by
     * default; turn off to shave the (cheap, parallel) pre-pass.
     */
    bool verify = true;
    /**
     * Run the structural-subtyping constraint pass (typeinf/) and
     * fuse its solved derives-from facts into the arborescence
     * objective: a candidate edge contradicting a solved fact is
     * pruned outright, an agreeing edge's statistical distance is
     * multiplied by typeinf_discount. Off = the DKL-only baseline
     * (EXPERIMENTS.md compares the two).
     */
    bool typeinf = true;
    /**
     * Weight multiplier for candidate edges a solved subtype fact
     * agrees with (applied to positive distances only, preserving
     * zero-cost forced edges). 1.0 disables discounting while keeping
     * the hard prunes.
     */
    double typeinf_discount = 0.25;
    /**
     * Size of the one support::ThreadPool that reconstruct(image,
     * config) builds and runs every parallel stage on (CFG recovery,
     * verify, symbolic execution, typeinf, SLM training, pairwise
     * distances, per-family arborescences): 1 = serial (default),
     * 0 = hardware concurrency, N = exactly N. symexec.threads is not
     * read, and reconstruct(image, config, pool) reads neither: the
     * caller's pool decides. Work is partitioned deterministically and
     * merged in index order, so the ReconstructionResult is
     * bit-identical for every thread count (first_difference() below;
     * enforced by tests/determinism_test.cc).
     */
    int threads = 1;
    /**
     * Content-addressed artifact store memoizing per-body symexec
     * tracelets, per-rep typeinf constraint batches, per-type SLM
     * snapshots and per-family distance/arborescence blobs
     * (cache/artifact_cache.h). Resolved against
     * cache::default_cache() when null; caching is off entirely when
     * both are null. Artifact fingerprints never include the thread
     * count, so warm results are bit-identical across pool sizes.
     */
    std::shared_ptr<cache::ArtifactCache> cache;
};

/**
 * Wall-clock profile of one reconstruction, one entry per pipeline
 * stage (milliseconds). Populated on every reconstruct() call;
 * bench/pipeline_scaling emits these as machine-readable JSON.
 *
 * Deprecated-but-stable: the call's span tree (obs/trace.h) is the
 * source of truth -- new consumers should read it via
 * obs::MetricsReport instead. Each field sums the wall time of every
 * "pipeline.<stage>" span under the call's own "pipeline.reconstruct"
 * span, read in one pass over that subtree once the call ends: a
 * front-end field is its one span, train/distances/arborescence add up
 * preludes, per-family pool tasks and merges. Pool tasks' spans nest
 * under the call that submitted them, so a concurrent call's spans
 * never leak in, while at threads > 1 overlapping task spans can sum
 * past total_ms. All fields are 0 when metrics are disabled.
 * tests/obs_test.cc pins these properties.
 */
struct StageTiming {
    /** Shared per-image CFG recovery (cfg::CfgCache::build_all). */
    double cfg_ms = 0.0;
    /** rockcheck image verification over the cached CFGs (0 when
     *  RockConfig::verify off). */
    double verify_ms = 0.0;
    /** Vtable scan + two-phase per-function symbolic execution. */
    double analyze_ms = 0.0;
    /** Family clustering + impossible-parent elimination. */
    double structural_ms = 0.0;
    /** Subtyping constraint generation + solving (0 when
     *  RockConfig::typeinf off). */
    double typeinf_ms = 0.0;
    /** Alphabet interning + per-type SLM training. */
    double train_ms = 0.0;
    /** Pairwise divergences over the feasible-edge work list. */
    double distances_ms = 0.0;
    /** Per-family arborescence enumeration + majority filtering. */
    double arborescence_ms = 0.0;
    /** Whole reconstruct() call. */
    double total_ms = 0.0;
};

/** Per-family reconstruction detail. */
struct FamilyResult {
    int family_id = 0;
    /** Members as indices into StructuralResult::types. */
    std::vector<int> members;
    /**
     * Surviving co-optimal parent assignments after majority voting;
     * each entry maps member position -> parent type index (or -1).
     * alternatives[0] is the selected one.
     */
    std::vector<std::vector<int>> alternatives;
    /** More than one hierarchy was structurally possible. */
    bool structurally_ambiguous = false;

    bool operator==(const FamilyResult&) const = default;
};

/** Hash for (parent index, child index) edge keys. */
struct EdgeKeyHash {
    std::size_t operator()(const std::pair<int, int>& e) const noexcept
    {
        std::uint64_t packed =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(e.first))
             << 32) |
            static_cast<std::uint32_t>(e.second);
        return std::hash<std::uint64_t>{}(packed);
    }
};

/**
 * Flat (parent idx, child idx) -> distance map. O(1) lookup on the
 * arborescence hot path; iteration order is unspecified -- use
 * ReconstructionResult::sorted_distances() when printing or
 * comparing.
 */
using DistanceMap =
    std::unordered_map<std::pair<int, int>, double, EdgeKeyHash>;

/** Everything a reconstruction produces. */
struct ReconstructionResult {
    /** Selected most-likely hierarchy. */
    Hierarchy hierarchy;
    /** Per-family details (for worst-case evaluation). */
    std::vector<FamilyResult> families;
    /** Structural facts (families, possible/forced parents). */
    structural::StructuralResult structural;
    /** Solved subtyping facts, sketches and constraint provenance
     *  (empty when RockConfig::typeinf off). */
    typeinf::TypeInfResult typeinf;
    /** Raw behavioral analysis output. */
    analysis::AnalysisResult analysis;
    /** rockcheck findings on the input image (empty when clean or
     *  when RockConfig::verify is off). Well-formed images -- all of
     *  toyc's output -- produce none; see cfg/verify.h. */
    std::vector<cfg::Diagnostic> diagnostics;
    /** Pairwise edge weights actually computed:
     *  (parent idx, child idx) -> distance. Same keys as the old
     *  std::map-based field (find / at / size / range-for all still
     *  work), but hashed; for ordered traversal see
     *  sorted_distances(). */
    DistanceMap distances;
    /** Families that needed the behavioral ranking. */
    int ambiguous_families = 0;
    /** Per-stage wall-clock profile of this reconstruction. */
    StageTiming timing;

    /** The shared event alphabet of all trained models. */
    analysis::Alphabet alphabet;
    /** Training symbol sequences per type (indexed like
     *  structural.types). */
    std::vector<std::vector<std::vector<int>>> type_sequences;
    /** The trained per-type SLMs (indexed like structural.types);
     *  kept so callers can classify new tracelets
     *  (rock/classify.h). */
    std::vector<std::unique_ptr<slm::LanguageModel>> models;

    /** Build the hierarchy selecting alternative @p pick[f] for each
     *  family f (used by worst-case evaluation). */
    Hierarchy hierarchy_with(const std::vector<int>& pick) const;

    /** distances as a vector sorted by (parent, child) key --
     *  deterministic iteration for reports and tests. */
    std::vector<std::pair<std::pair<int, int>, double>>
    sorted_distances() const
    {
        std::vector<std::pair<std::pair<int, int>, double>> out(
            distances.begin(), distances.end());
        std::sort(out.begin(), out.end());
        return out;
    }
};

/**
 * The determinism contract: a ReconstructionResult is bit-identical
 * across thread counts, artifact-cache states (uncached, cold, warm)
 * and VMI save/load round trips. Every such check calls this. Returns
 * "" when @p a and @p b agree, otherwise the first field that
 * differs, e.g. "families[3].alternatives" or "distances(12,40)".
 * Compared in this order: the hierarchy's primary and extra parents
 * per type; each family's family_id, members, alternatives (in
 * order) and structurally_ambiguous; ambiguous_families; distances
 * (keys and exact bits); every field of structural, typeinf and
 * analysis; diagnostics; the alphabet (every event in id order);
 * type_sequences; models (by their slm::snapshot_model bytes).
 *
 * Left out: `timing` (wall clock), and hierarchy node names
 * (reconstruct() never sets them; callers label nodes for display).
 */
std::string first_difference(const ReconstructionResult& a,
                             const ReconstructionResult& b);

namespace detail {

/**
 * Iterative majority-vote filtering over co-optimal forests (paper
 * Section 4.2.2, "Handling Multiple Arborescences"): while more than
 * one forest survives, find a member position where a strict majority
 * of forests agrees on the parent and drop the dissenters. Exposed
 * for unit testing.
 */
void majority_filter(std::vector<graph::Arborescence>& forests);

} // namespace detail

/** Run the full pipeline on @p image, on a pool of
 *  resolve_threads(config.threads) built for this call. */
ReconstructionResult reconstruct(const bir::BinaryImage& image,
                                 const RockConfig& config = {});

/**
 * Run the full pipeline on @p image with every stage on @p pool
 * (config.threads is not read). Builds no thread of its own, so one
 * pool can serve many calls, concurrent ones included, and a task
 * running on @p pool may make the call (rockd does).
 */
ReconstructionResult reconstruct(const bir::BinaryImage& image,
                                 const RockConfig& config,
                                 support::ThreadPool& pool);

} // namespace rock::core
