/**
 * @file
 * Pipeline-level artifact keys and payload codecs for the
 * content-addressed cache (cache/artifact_cache.h).
 *
 * The per-stage caches below cfg/analysis/typeinf key their artifacts
 * themselves; this header owns the four pipeline-owned kinds:
 *
 *   "slm"       one trained language-model snapshot per distinct
 *               member-sequence multiset (slm/snapshot.h does the
 *               trie codec; the key builders live here)
 *   "famdist"   one blob per family: the final edge weights of its
 *               feasible-edge range plus the work tallies (pairs,
 *               words, escapes) a warm hit adds to the obs counters
 *               where a cold run adds the ones it measured
 *   "famsolve"  one blob per multi-member family: the co-optimal
 *               parent assignments (local member indices) plus the
 *               arborescence stage's counts, Edmonds contractions
 *               and the enumerator's budget cuts included
 *   "manifest"  one entry per (image digest, config fingerprint)
 *               marking a completed reconstruction; a hit opens the
 *               "pipeline.warm" span
 *
 * Everything here is deliberately public: the fuzz harness's
 * stale-cache-entry injection decodes, mutates and re-encodes
 * famsolve blobs with these exact codecs to prove the
 * cache-consistent oracle has teeth.
 *
 * Fingerprints fold every knob that can change the payload and
 * nothing else -- in particular never the thread count, so warm
 * results are bit-identical across pool sizes.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/event.h"
#include "cache/artifact_cache.h"
#include "rock/pipeline.h"

namespace rock::core {

/** Pipeline-owned artifact kinds (see file comment). */
inline constexpr const char* kSlmArtifactKind = "slm";
inline constexpr const char* kFamilyDistanceKind = "famdist";
inline constexpr const char* kFamilySolveKind = "famsolve";
inline constexpr const char* kManifestKind = "manifest";

/**
 * Digest of a shared event alphabet: size plus every (kind, index,
 * aux) triple in symbol-id order. Trained tries store interned symbol
 * ids, so any artifact derived from one is only valid under the exact
 * alphabet that produced those ids -- every slm/famdist fingerprint
 * folds this digest.
 */
std::uint64_t alphabet_digest(const analysis::Alphabet& alphabet);

/** Order-sensitive hash of one interned symbol sequence. */
std::uint64_t sequence_hash(const std::vector<int>& seq);

/**
 * Order-insensitive hash of a type's member-sequence multiset: the
 * per-sequence hashes, sorted, folded over the sequence count. This
 * is the "slm" content key -- two types with identical training
 * multisets share one snapshot.
 */
std::uint64_t
sequence_multiset_hash(const std::vector<std::vector<int>>& seqs);

/** Fingerprint of everything that shapes a trained model besides its
 *  training sequences: schema, model knobs, alphabet. */
std::uint64_t slm_fingerprint(const slm::ModelConfig& config,
                              int alphabet_size,
                              std::uint64_t alphabet_digest);

/** Fingerprint shared by every "famdist" artifact of a run: schema,
 *  distance-stage generation, alphabet and model/metric/word-set
 *  knobs. */
std::uint64_t distance_fingerprint(const RockConfig& config,
                                   int alphabet_size,
                                   std::uint64_t alphabet_digest);

/** Fingerprint shared by every "famsolve" artifact of a run: schema,
 *  solver generation and the tie epsilon. */
std::uint64_t solve_fingerprint(const RockConfig& config);

/**
 * Fingerprint of the whole configuration -- every field that can
 * change any reconstruction output, which is every field except
 * `threads` and `cache` itself (the static constants never change).
 * The "manifest" artifact is keyed (image digest, this).
 */
std::uint64_t config_fingerprint(const RockConfig& config);

/** Payload of one "famdist" artifact. */
struct FamilyDistanceBlob {
    /** Final (post-discount) weights, in family edge order. */
    std::vector<double> weights;
    /** divergence.pairs / divergence.words tallies. */
    std::uint64_t pairs = 0;
    std::uint64_t words = 0;
    /** slm.escapes tally (model walks during the metric). */
    std::uint64_t escapes = 0;
};

void encode_family_distances(const FamilyDistanceBlob& blob,
                             cache::ByteWriter& out);

/** Decode into @p blob; false (= cache miss) on any inconsistency. */
bool decode_family_distances(cache::ByteReader& in,
                             FamilyDistanceBlob* blob);

/** Payload of one "famsolve" artifact. */
struct FamilySolveBlob {
    /** Family size the solution was computed for. */
    int m = 0;
    bool structurally_ambiguous = false;
    /** arborescence.cooptimal_forests counter replay. */
    std::uint64_t cooptimal = 0;
    /** arborescence.ties_majority_resolved counter replay. */
    std::uint64_t resolved = 0;
    /** graph.edmonds.contractions tally. */
    std::uint64_t contractions = 0;
    /** budget.max_alternatives tally
     *  (graph::thread_enumerate_cuts()). */
    std::uint64_t alternative_cuts = 0;
    /** Surviving parent assignments, member position -> local member
     *  index of the parent (-1 = root); alternatives[0] is selected. */
    std::vector<std::vector<int>> alternatives;
};

void encode_family_solution(const FamilySolveBlob& blob,
                            cache::ByteWriter& out);

/** Decode into @p blob; false (= cache miss) on any inconsistency
 *  (bad sizes, parent indices outside [-1, m), trailing bytes). */
bool decode_family_solution(cache::ByteReader& in,
                            FamilySolveBlob* blob);

} // namespace rock::core
