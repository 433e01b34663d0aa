/**
 * @file
 * Outside-in layer tracing. Nothing under src/ is instrumented for
 * the benchmark: the traced run calls each layer's public entry point
 * itself, under a span recorded here, feeding it the upstream
 * products of a core::reconstruct() of the same image and checking
 * its output against that result, so every span times the same work
 * reconstruct() did.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bir/image.h"
#include "cache/artifact_cache.h"
#include "rock/pipeline.h"

namespace perfbench {

/**
 * In-memory span log: name, start, end, parent and op id per span,
 * written out once at the end of a run. Scopes nest on one thread;
 * spans observed on other threads are added after the fact with
 * record().
 */
class SpanRecorder {
  public:
    struct Span {
        int id = 0;
        int parent = -1;
        int op = 0;
        std::string name;
        double start_ms = 0.0;
        double end_ms = 0.0;

        double ms() const { return end_ms - start_ms; }
    };

    /** RAII span, child of the innermost open Scope. */
    class Scope {
      public:
        Scope(SpanRecorder& recorder, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder& recorder_;
        int id_;
    };

    SpanRecorder();

    /** Op id stamped on spans opened from now on. */
    void set_op(int op) { op_ = op; }
    /** Milliseconds since the recorder was created. */
    double now_ms() const;
    /** Add a finished span; returns its id. */
    int record(std::string name, int parent, int op, double start_ms,
               double end_ms);

    const std::vector<Span>& spans() const { return spans_; }

    /**
     * Self time (duration minus the part covered by child spans)
     * summed per (op, span name).
     */
    std::map<int, std::map<std::string, double>> self_ms_by_op() const;

    /** Write the log in Chrome trace-event JSON (Perfetto,
     *  chrome://tracing); false on I/O error. */
    bool write_chrome_trace(const std::string& path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int op_ = 0;
};

/** Order-sensitive digest of everything a reconstruction outputs
 *  (hierarchy, families and alternatives, distance bits, structural
 *  facts, diagnostics): equal digests mean bit-identical results. */
std::uint64_t result_digest(const rock::core::ReconstructionResult& r);

/** The hierarchy covers every type structural analysis discovered. */
bool covers_all_types(const rock::core::ReconstructionResult& r);

/** Work counts replay_layers() adds up; each is a pure function of
 *  the images replayed. */
struct LayerCounts {
    std::uint64_t cfg_functions = 0;
    std::uint64_t analysis_paths = 0;
    std::uint64_t analysis_tracelets = 0;
    std::uint64_t structural_feasible_edges = 0;
    std::uint64_t typeinf_constraints = 0;
    std::uint64_t typeinf_edges_pruned = 0;
    std::uint64_t slm_trie_nodes = 0;
    std::uint64_t slm_escapes = 0;
    std::uint64_t divergence_pairs = 0;
    std::uint64_t divergence_words = 0;
    std::uint64_t graph_contractions = 0;
    /** Co-optimal forests enumerated / kept by the majority vote. */
    std::uint64_t graph_forests = 0;
    std::uint64_t graph_kept = 0;

    bool operator==(const LayerCounts&) const = default;
};

/**
 * Re-run reconstruct()'s layers on @p image serially, each call under
 * a span named after its layer ("cfg.build", "cfg.verify",
 * "analysis", "structural", "typeinf", "slm.train", "divergence",
 * "graph"). Each layer takes its inputs from @p reference, the result
 * of reconstruct(@p image, @p config). @p store is handed to the two
 * layers that accept one (analysis, typeinf). With @p tail false the
 * slm/divergence/graph layers are skipped: a warm reconstruct() reads
 * their products from the artifact cache instead of computing them.
 *
 * Returns an empty string when every layer's output equals
 * @p reference's, else a description of the first difference.
 */
std::string
replay_layers(const rock::bir::BinaryImage& image,
              const rock::core::ReconstructionResult& reference,
              const rock::core::RockConfig& config,
              const std::shared_ptr<rock::cache::ArtifactCache>& store,
              bool tail, SpanRecorder& recorder, LayerCounts& counts);

} // namespace perfbench
