/**
 * @file
 * Seeded benchmark inputs. The program under test only ever sees the
 * compiled images; source programs and ground truth stay here.
 *
 * The seed relabels, it does not resample: every workload starts
 * from fixed generator specs (bench/skype_scale's spec with its seed
 * 2018, the Table-2 programs, fuzz::sample_spec(1..N)) and the
 * workload seed shuffles each program's usage declaration order. A
 * second seed therefore yields different image bytes (usage functions
 * move, and with them call targets and the image entry) with the same
 * class hierarchies and the same amount of work, so runs on different
 * seeds can be compared.
 * Resampling generator seeds moves a 2000-class cold run between
 * 4.8 s and 37 s; shuffling class declarations reorders types and
 * with them the enumerator's search (README.md, "Why the seed only
 * relabels").
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "eval/ground_truth.h"
#include "toyc/ast.h"
#include "toyc/compiler.h"

namespace perfbench {

/** Input sizes; the defaults are the benchmark's, tests shrink them. */
struct Sizes {
    /** scale_cold: classes of the skype_scale image. */
    int scale_classes = 2000;
    /** cache_warm: classes of the skype_scale image. */
    int warm_classes = 1000;
    /** corpus_cold: include the 19 Table-2 programs. */
    bool corpus_table2 = true;
    /** corpus_cold: fuzz::sample_spec(1..corpus_fuzz) programs. */
    int corpus_fuzz = 200;
    /** serve_mixed: classes per pool image. */
    int serve_classes = 150;
    /** serve_mixed: offered load, requests per second. */
    double serve_rate = 8.0;
    /** Set-ups per run: at least setup_min_repeats, then more until
     *  setup_min_seconds have been spent; setup_s is their median. */
    int setup_min_repeats = 3;
    double setup_min_seconds = 2.0;
};

/** Upper limit on set-ups per run, however short one is. */
constexpr std::size_t kSetupMaxRepeats = 40;

/** serve_mixed: share of requests carrying a first-seen image. */
constexpr double kServeNewShare = 0.15;
/** serve_mixed: daemon workers. With 2, every singleton wave runs
 *  reconstruct() on a fresh 2-thread pool whose threads slept and woke
 *  about 890 times per warm request, so latency followed the shared
 *  host's scheduling (README.md, "Serve load"). */
constexpr int kServeWorkers = 1;
/** serve_mixed traced run: threads whose ThreadPool cost
 *  pool.thread_delta_ms reports against threads=1. */
constexpr int kPoolDeltaThreads = 2;
/** serve_mixed: client connections the load is spread over. */
constexpr int kServeConnections = 4;

/** One compiled benchmark image with its ground truth. */
struct Input {
    std::string name;
    rock::toyc::CompileResult compiled;
    rock::eval::GroundTruth truth;
};

/** bench/skype_scale's generator spec at @p classes (seed 2018). */
rock::corpus::GeneratorSpec skype_spec(int classes);

/** @p program with its usage declarations shuffled by @p seed: a
 *  different image with the same hierarchy. */
rock::toyc::Program permuted(rock::toyc::Program program,
                             std::uint64_t seed);

/** Compile @p program (permuted by @p seed) into an Input. */
Input make_input(const std::string& name,
                 const rock::toyc::Program& program,
                 const rock::toyc::CompileOptions& options,
                 std::uint64_t seed);

/** scale_cold / cache_warm: one skype_scale image of @p classes. */
Input skype_input(int classes, std::uint64_t seed);

/** corpus_cold: Table-2 programs then the fuzz samples. */
std::vector<Input> corpus_inputs(const Sizes& sizes, std::uint64_t seed);

/** serve_mixed traffic: a pool of images and, per request, which pool
 *  image it carries. */
struct ServeTraffic {
    std::vector<Input> pool;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::size_t> schedule;
};

/**
 * The open-loop schedule for @p seconds at sizes.serve_rate. The
 * first request, and every one whose index crosses a multiple of
 * 1/kServeNewShare, brings the next first-seen pool image; the
 * others repeat a seen image, drawn with weight 1/(rank+1) over
 * first-seen order so early images form a hot set. The schedule is
 * the same for every seed; the seed permutes the pool programs.
 */
ServeTraffic serve_traffic(const Sizes& sizes, double seconds,
                           std::uint64_t seed);

} // namespace perfbench
