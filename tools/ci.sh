#!/usr/bin/env bash
# CI gate for the repository, in six legs:
#
#  1. tier1: the tier-1 verify line (ROADMAP.md): default build, full
#     ctest suite, 200-seed rockfuzz campaign;
#  2. sanitize: an ASan+UBSan build (-DROCK_SANITIZE=address,undefined)
#     of the same suite -- including the explicit determinism_asan /
#     determinism_ubsan / cfg_asan / cfg_ubsan / serve_asan entries --
#     plus a 50-seed rockfuzz smoke under instrumentation;
#  3. vm: rockvm runs every built-in corpus image trap-free, then a
#     50-seed coverage-guided rockfuzz campaign restricted to the
#     vm-differential oracle (dynamic tracelets under rockvm are a
#     subset of the static symexec sets); repro files are kept on
#     failure like every other fuzz leg;
#  4. perf: bench/pipeline_scaling + a rockhier --metrics-json run,
#     gated against the committed BENCH_pipeline_scaling.json /
#     BASELINE_rockhier_counters.json baselines with tools/rockstat
#     (>25% wall-time growth or *any* deterministic-counter drift
#     fails); micro_slm/micro_graph/micro_typeinf google-benchmark
#     runs gated at 3x against BENCH_micro_slm.json /
#     BENCH_micro_graph.json / BENCH_micro_typeinf.json (order-of-
#     magnitude detector, not a noise gate); a skype_scale
#     speedup gate (`rockstat --check --min-speedup 4:2.5`) that
#     binds only on hosts with >= 4 hardware threads; and a
#     warm-cache gate (`skype_scale --warm-runs 2` +
#     `rockstat --check --min-warm-speedup 5`): warm re-analysis
#     through the artifact cache (docs/CACHING.md) must be >= 5x
#     faster than the same process's cold run, bit-identical, with
#     cache hits -- hardware-independent, never skipped; and a
#     memory gate (`skype_scale --classes 5000 --threads 4` +
#     `rockstat --check --max-peak-rss-mb 1024`): the default
#     5000-class image must peak below 1 GB; and the benchmark
#     self-test (`perfbench/run.py --selftest`), whose traced replays
#     must equal reconstruct() bit for bit. The warm
#     JSONL is kept as an artifact (ROCK_CI_ARTIFACTS dir);
#  5. serve: boots rockd on a unix socket, replays a duplicate-heavy
#     trace of 2000-class submissions through rockctl with 4
#     concurrent clients, then gates (a) bit-identity -- every served
#     response must equal a cold `rockhier` run on the same image,
#     (b) latency -- `rockstat --check --max-p50-ms/--max-p95-ms` on
#     the daemon's rock-metrics-v1 latency histogram, and (c) cache
#     economics -- `--min-hit-rate 0.5`: a duplicate-heavy trace that
#     misses the artifact cache means the serving layer broke the
#     warm path (docs/SERVING.md); then (d) a leak gate: a second,
#     1-thread daemon whose cache keeps nothing serves 50 cold
#     Analyzer submits, then 500 more, and must grow by at most 2 MB
#     of VmRSS and at most 2x in its `stats` reply between the two
#     points. The daemon metrics and per-request latency JSONL are
#     kept as artifacts (ROCK_CI_ARTIFACTS dir);
#  6. tsan: a ThreadSanitizer build (-DROCK_SANITIZE=thread) of the
#     three suites that drive the thread pool hardest -- support_test
#     (nested and concurrent run_tasks), determinism_test (every
#     thread count, one pool shared across calls) and serve_test (the
#     daemon's waves) -- run as the support_tsan / determinism_tsan /
#     serve_tsan ctest entries.
#
# Leg hygiene: every leg runs under a hard `timeout` (a wedged daemon
# or hung fuzz case fails the leg instead of stalling CI until the
# job-level kill), and the script ends with a per-leg wall-time
# summary so creeping legs are visible in the log before they become
# timeouts.
#
# Usage:
#   tools/ci.sh [--quick] [--only LEG]
#     --quick      skip the sanitizer legs (fast local pre-push check)
#     --only LEG   run one leg: tier1 | sanitize | vm | perf | serve | tsan
#   JOBS=N overrides build/test parallelism (default: nproc).
#   ROCK_CI_LEG_TIMEOUT=SECS overrides every leg's time limit.
set -euo pipefail
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

# ---------------------------------------------------------------------------
# Leg bodies. Each runs in a child invocation (`$0 --leg-body NAME`)
# so the parent can wrap it in a hard `timeout` covering everything
# the leg does, builds included.
# ---------------------------------------------------------------------------

leg_tier1() {
    echo "==> tier-1: build + tests + 200-seed fuzz"
    cmake -B build -S .
    cmake --build build -j "$JOBS"
    (cd build && ctest --output-on-failure -j "$JOBS")
    ./build/tools/rockfuzz --seeds 200 --repro-dir "$ROCK_CI_REPRO_DIR"
}

leg_sanitize() {
    echo "==> sanitizers: ASan+UBSan build + tests + 50-seed fuzz"
    cmake -B build-asan -S . -DROCK_SANITIZE=address,undefined
    cmake --build build-asan -j "$JOBS"
    (cd build-asan && ctest --output-on-failure -j "$JOBS")
    ./build-asan/tools/rockfuzz --seeds 50 --repro-dir "$ROCK_CI_REPRO_DIR"
}

leg_tsan() {
    echo "==> tsan: ThreadSanitizer build of the pool, determinism and serve suites"
    cmake -B build-tsan -S . -DROCK_SANITIZE=thread
    cmake --build build-tsan -j "$JOBS" --target support_test \
        determinism_test serve_test
    (cd build-tsan && ctest --output-on-failure -j "$JOBS" -R '_tsan$')
}

leg_vm() {
    echo "==> vm: rockvm builtins + 50-seed vm-differential smoke"
    # Reuses the tier-1 build tree (configuring it when --only vm
    # skipped tier1).
    cmake -B build -S .
    cmake --build build -j "$JOBS" --target rockvm rockfuzz
    # Every built-in corpus image must execute trap-free.
    ./build/tools/rockvm --builtin --threads 0 > /dev/null
    # Coverage-guided differential campaign: dynamic ⊆ static. The
    # campaign's metrics (per-oracle spans included) are kept when the
    # caller wants artifacts (the GitHub workflow sets
    # ROCK_CI_ARTIFACTS).
    metrics=()
    if [ -n "${ROCK_CI_ARTIFACTS:-}" ]; then
        mkdir -p "$ROCK_CI_ARTIFACTS"
        metrics=(--metrics-json "$ROCK_CI_ARTIFACTS/vm-metrics.json")
    fi
    ./build/tools/rockfuzz --seeds 50 --oracle vm-differential \
        --coverage-pool 4 --repro-dir "$ROCK_CI_REPRO_DIR" \
        "${metrics[@]}"
}

leg_perf() {
    echo "==> perf: pipeline_scaling + metrics gate vs committed baselines"
    # The perf leg reuses the tier-1 build tree (configuring it when
    # --only perf skipped tier1).
    cmake -B build -S .
    cmake --build build -j "$JOBS" --target pipeline_scaling rockhier \
        rockstat rockc micro_slm micro_graph micro_typeinf skype_scale
    perf_dir="$(mktemp -d "${TMPDIR:-/tmp}/rockperf.XXXXXX")"
    ./build/bench/pipeline_scaling > "$perf_dir/bench.jsonl"
    ./build/tools/rockc --benchmark Smoothing -o "$perf_dir/smoothing.vmi"
    ./build/tools/rockhier "$perf_dir/smoothing.vmi" --threads 2 \
        --metrics-json "$perf_dir/rockhier-metrics.json" > /dev/null
    # Wall-time gate: committed bench trajectory, 25% relative + 5ms
    # absolute slack (micro-stage noise).
    ./build/tools/rockstat --baseline BENCH_pipeline_scaling.json \
        "$perf_dir/bench.jsonl"
    # Counter gate: deterministic counters must match the committed
    # snapshot exactly, on any machine (timing ignored).
    ./build/tools/rockstat --baseline BASELINE_rockhier_counters.json \
        "$perf_dir/rockhier-metrics.json" --counters-only
    # Micro-bench gates: hot-path kernels (SLM train/prob/DKL,
    # arborescence) vs committed google-benchmark baselines. The 3x
    # relative tolerance + 1ms slack makes this an order-of-magnitude
    # detector -- it fires when a fast path is lost (e.g. the flat
    # trie falling back to general_prob), not on scheduler noise or a
    # different CPU generation.
    ./build/bench/micro_slm --benchmark_format=json \
        --benchmark_min_time=0.05 > "$perf_dir/micro_slm.json"
    ./build/tools/rockstat --baseline BENCH_micro_slm.json \
        "$perf_dir/micro_slm.json" --time-tol 3.0 --abs-slack-ms 1
    ./build/bench/micro_graph --benchmark_format=json \
        --benchmark_min_time=0.05 > "$perf_dir/micro_graph.json"
    ./build/tools/rockstat --baseline BENCH_micro_graph.json \
        "$perf_dir/micro_graph.json" --time-tol 3.0 --abs-slack-ms 1
    ./build/bench/micro_typeinf --benchmark_format=json \
        --benchmark_min_time=0.05 > "$perf_dir/micro_typeinf.json"
    ./build/tools/rockstat --baseline BENCH_micro_typeinf.json \
        "$perf_dir/micro_typeinf.json" --time-tol 3.0 --abs-slack-ms 1
    # Parallel-speedup gate: a Skype-scale corpus (2000 classes keeps
    # the leg ~10s / <1 GB) reconstructed serially and at 4 workers
    # must hit >= 2.5x. Hardware-aware: rockstat --check skips the
    # threshold on hosts with < 4 hw threads but always enforces the
    # bit-identical check.
    ./build/bench/skype_scale --classes 2000 --threads 1,4 \
        --json "$perf_dir/skype.jsonl"
    ./build/tools/rockstat --check "$perf_dir/skype.jsonl" \
        --min-speedup 4:2.5
    # Warm-cache gate: one cold + two warm reconstructions of the
    # same 2000-class image in one process; every warm line must be
    # >= 5x the cold total, bit-identical, and actually hit the
    # cache. Unlike the parallel gate this is never hardware-skipped.
    ./build/bench/skype_scale --classes 2000 --threads 1 \
        --warm-runs 2 --json "$perf_dir/skype-warm.jsonl"
    ./build/tools/rockstat --check "$perf_dir/skype-warm.jsonl" \
        --min-warm-speedup 5
    # Memory gate: the 5000-class default image at 4 workers must
    # peak below 1 GB of RSS (each line's peak_rss_mb is the process
    # high-water mark). About 5 s on 4 cores.
    ./build/bench/skype_scale --classes 5000 --threads 4 \
        --json "$perf_dir/skype-5000.jsonl"
    ./build/tools/rockstat --check "$perf_dir/skype-5000.jsonl" \
        --max-peak-rss-mb 1024
    # Benchmark self-test: its traced replays recompute every layer of
    # reconstruct() through the per-layer APIs -- every DKL weight
    # through pair_distance() over merge_word_sets() -- and must match
    # the pipeline bit for bit.
    python3 perfbench/run.py --selftest
    # Keep the warm JSONL when the caller wants artifacts uploaded
    # (the GitHub workflow sets ROCK_CI_ARTIFACTS).
    if [ -n "${ROCK_CI_ARTIFACTS:-}" ]; then
        mkdir -p "$ROCK_CI_ARTIFACTS"
        cp "$perf_dir/skype-warm.jsonl" "$ROCK_CI_ARTIFACTS/"
    fi
    rm -rf "$perf_dir"
}

leg_serve() {
    echo "==> serve: rockd + duplicate-heavy replay + latency/hit-rate/identity gates"
    # Reuses the tier-1 build tree (configuring it when --only serve
    # skipped tier1).
    cmake -B build -S .
    cmake --build build -j "$JOBS" --target rockd rockctl rockc \
        rockhier rockstat
    serve_dir="$(mktemp -d "${TMPDIR:-/tmp}/rockserve.XXXXXX")"

    # Three distinct 2000-class images (the skype_scale corpus shape),
    # then a duplicate-heavy trace: 12 submissions, 3 unique -- the
    # triage-fleet traffic pattern the daemon exists for. The trace is
    # ordered so every concurrent window of 4 mixes duplicates with
    # distinct images, exercising both wave dedup and the warm
    # artifact-store path.
    for s in 1 2 3; do
        ./build/tools/rockc --synthetic 2000 --gen-seed "$s" \
            -o "$serve_dir/img$s.vmi" > /dev/null
    done
    for s in 1 2 3 1 2 3 1 1 2 3 1 1; do
        echo "$serve_dir/img$s.vmi"
    done > "$serve_dir/trace.txt"

    ./build/tools/rockd --socket "$serve_dir/rockd.sock" --threads 0 \
        --metrics-json "$serve_dir/serve-metrics.json" \
        2> "$serve_dir/rockd.log" &
    rockd_pid=$!
    for _ in $(seq 100); do
        [ -S "$serve_dir/rockd.sock" ] && break
        sleep 0.1
    done
    [ -S "$serve_dir/rockd.sock" ] || {
        echo "ci.sh: rockd did not come up" >&2
        cat "$serve_dir/rockd.log" >&2
        exit 1
    }

    mkdir -p "$serve_dir/responses"
    replay_status=0
    ./build/tools/rockctl --socket "$serve_dir/rockd.sock" \
        replay "$serve_dir/trace.txt" --clients 4 \
        --out "$serve_dir/responses" \
        --latency-jsonl "$serve_dir/latency.jsonl" || replay_status=$?
    ./build/tools/rockctl --socket "$serve_dir/rockd.sock" shutdown \
        > /dev/null || true
    wait "$rockd_pid"

    # Artifacts first, so a failing gate still ships its evidence.
    if [ -n "${ROCK_CI_ARTIFACTS:-}" ]; then
        mkdir -p "$ROCK_CI_ARTIFACTS"
        cp "$serve_dir/serve-metrics.json" "$serve_dir/latency.jsonl" \
            "$serve_dir/rockd.log" "$ROCK_CI_ARTIFACTS/" 2>/dev/null || true
    fi
    [ "$replay_status" -eq 0 ] || {
        echo "ci.sh: rockctl replay failed" >&2
        exit "$replay_status"
    }

    # Bit-identity gate: every served response equals a cold rockhier
    # run of the same image in a fresh process.
    for s in 1 2 3; do
        ./build/tools/rockhier "$serve_dir/img$s.vmi" \
            > "$serve_dir/cold$s.out"
        cmp "$serve_dir/responses/img$s.vmi.out" "$serve_dir/cold$s.out"
    done

    # Latency + cache-economics gates on the daemon's own metrics.
    # The latency bounds are order-of-magnitude detectors (a wedged
    # batcher, a lost warm path), not scheduler-noise gates; the hit
    # rate must clear 0.5 because 9 of 12 submissions were duplicates.
    ./build/tools/rockstat --check "$serve_dir/serve-metrics.json" \
        --max-p50-ms 60000 --max-p95-ms 100000 --min-hit-rate 0.5

    # Leak gate: a long-lived daemon must not grow with its request
    # count. One worker, a one-byte cache (every submit runs cold), one
    # client; the first reading comes after 50 submits, once the
    # daemon's ring of recent request traces is full, the second after
    # 500 more.
    ./build/tools/rockc --benchmark Analyzer \
        -o "$serve_dir/analyzer.vmi" > /dev/null
    for n in 50 500; do
        for _ in $(seq "$n"); do echo "$serve_dir/analyzer.vmi"; done \
            > "$serve_dir/leak$n.txt"
    done
    ./build/tools/rockd --socket "$serve_dir/leak.sock" --threads 1 \
        --cache-max-bytes 1 2> "$serve_dir/leak.log" &
    leak_pid=$!
    for _ in $(seq 100); do
        [ -S "$serve_dir/leak.sock" ] && break
        sleep 0.1
    done
    leak_ctl() {
        ./build/tools/rockctl --socket "$serve_dir/leak.sock" "$@" \
            > /dev/null
    }
    for n in 50 500; do
        leak_ctl replay "$serve_dir/leak$n.txt" --clients 1
        leak_ctl stats --out "$serve_dir/stats$n.json"
        awk '/^VmRSS:/ {print $2}' "/proc/$leak_pid/status" \
            > "$serve_dir/rss$n.kb"
    done
    leak_ctl shutdown || true
    wait "$leak_pid"
    rss_before=$(cat "$serve_dir/rss50.kb")
    rss_after=$(cat "$serve_dir/rss500.kb")
    stats_before=$(wc -c < "$serve_dir/stats50.json")
    stats_after=$(wc -c < "$serve_dir/stats500.json")
    echo "rockd leak gate: VmRSS ${rss_before} -> ${rss_after} kB," \
        "stats ${stats_before} -> ${stats_after} bytes (50 -> 550 submits)"
    [ $((rss_after - rss_before)) -le 2048 ] || {
        echo "ci.sh: rockd VmRSS grew by more than 2 MB" >&2
        exit 1
    }
    [ "$stats_after" -le $((2 * stats_before)) ] || {
        echo "ci.sh: rockd stats reply grew past 2x" >&2
        exit 1
    }
    rm -rf "$serve_dir"
}

# ---------------------------------------------------------------------------
# Child dispatch: `$0 --leg-body NAME` runs one leg body and exits.
# ---------------------------------------------------------------------------
if [ "${1:-}" = "--leg-body" ]; then
    [ $# -ge 2 ] || { echo "ci.sh: --leg-body needs a leg" >&2; exit 2; }
    "leg_$2"
    exit 0
fi

run_tier1=1
run_sanitize=1
run_vm=1
run_perf=1
run_serve=1
run_tsan=1
while [ $# -gt 0 ]; do
    case "$1" in
      --quick)
        run_sanitize=0 run_tsan=0
        ;;
      --only)
        [ $# -ge 2 ] || { echo "ci.sh: --only needs a leg" >&2; exit 2; }
        run_tier1=0 run_sanitize=0 run_vm=0 run_perf=0 run_serve=0
        run_tsan=0
        case "$2" in
          tier1)    run_tier1=1 ;;
          sanitize) run_sanitize=1 ;;
          vm)       run_vm=1 ;;
          perf)     run_perf=1 ;;
          serve)    run_serve=1 ;;
          tsan)     run_tsan=1 ;;
          *) echo "ci.sh: unknown leg '$2'" >&2; exit 2 ;;
        esac
        shift
        ;;
      *)
        echo "usage: tools/ci.sh [--quick] [--only tier1|sanitize|vm|perf|serve|tsan]" >&2
        exit 2
        ;;
    esac
    shift
done

# Fuzz repro hygiene: campaigns write repro files into a private
# tempdir that is removed on success and printed (and kept) on
# failure, instead of littering /tmp. Exported so leg-body children
# share it.
export ROCK_CI_REPRO_DIR="${ROCK_CI_REPRO_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/rockfuzz-repro.XXXXXX")}"
mkdir -p "$ROCK_CI_REPRO_DIR"
leg_summary=""
cleanup() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "$(ls -A "$ROCK_CI_REPRO_DIR" 2>/dev/null)" ]; then
        echo "ci.sh: fuzz repro files kept in $ROCK_CI_REPRO_DIR" >&2
    else
        rm -rf "$ROCK_CI_REPRO_DIR"
    fi
    if [ -n "$leg_summary" ]; then
        echo "==> ci.sh: leg wall times:$leg_summary"
    fi
}
trap cleanup EXIT

# Hard per-leg time limits (seconds): a wedged leg fails loudly here
# instead of stalling until the CI job-level kill. The build-heavy
# legs get the larger budget. ROCK_CI_LEG_TIMEOUT overrides all.
leg_limit() {
    case "$1" in
      tier1|sanitize|tsan) echo "${ROCK_CI_LEG_TIMEOUT:-5400}" ;;
      *)              echo "${ROCK_CI_LEG_TIMEOUT:-2700}" ;;
    esac
}

run_leg() {
    leg="$1"
    limit="$(leg_limit "$leg")"
    start="$(date +%s)"
    leg_status=0
    timeout --foreground "$limit" "$SELF" --leg-body "$leg" || leg_status=$?
    elapsed=$(( $(date +%s) - start ))
    leg_summary="$leg_summary $leg ${elapsed}s;"
    if [ "$leg_status" -eq 124 ]; then
        echo "ci.sh: leg '$leg' exceeded its ${limit}s time limit" >&2
        exit 124
    elif [ "$leg_status" -ne 0 ]; then
        exit "$leg_status"
    fi
}

if [ "$run_tier1" -eq 1 ];    then run_leg tier1;    fi
if [ "$run_sanitize" -eq 1 ]; then run_leg sanitize; fi
if [ "$run_vm" -eq 1 ];       then run_leg vm;       fi
if [ "$run_perf" -eq 1 ];     then run_leg perf;     fi
if [ "$run_serve" -eq 1 ];    then run_leg serve;    fi
if [ "$run_tsan" -eq 1 ];     then run_leg tsan;     fi

echo "==> ci.sh: all green"
