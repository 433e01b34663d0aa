/**
 * @file
 * `rockd` -- the resident analysis service (ROADMAP item 2, second
 * half). A long-running daemon that accepts VMI images over a
 * unix-domain socket (protocol.h), batches small requests into
 * analysis waves, runs each wave on the daemon's one
 * support::ThreadPool, and serves everything through a shared
 * cache::ArtifactCache so the triage-fleet traffic pattern -- many
 * users, mostly-duplicate submissions -- rides the warm paths
 * docs/CACHING.md measured at >= 5x.
 *
 * Concurrency model (verona-bc behaviour-oriented scheduling is the
 * exemplar): every connection is a *task source* feeding one shared
 * request queue; the batcher turns queue prefixes into waves; each
 * unique image in a wave is one task of a run_tasks graph on the
 * daemon's pool, and that task reconstructs on the same pool, so
 * reconstruct()'s per-family chains share the pool's threads with
 * the wave's other images. Every wave runs this one way, whatever
 * its size; the batcher runs a one-group wave's task itself and waits
 * while the workers run its loops, and no thread is started per
 * request. There is no global barrier anywhere between connections --
 * only the wave's own fan-out/fan-in.
 *
 * Wave dedup: submissions are grouped by an FNV-1a hash of their
 * payload bytes; one reconstruction per group, identical response
 * bytes fanned out to every member (serve.dedup.hits counts the
 * members beyond the first). Across waves, duplicates re-run
 * reconstruct() against the shared artifact store and come back warm
 * and bit-identical (cache.hits). Either way the response is
 * byte-for-byte what a cold `rockhier IMAGE.vmi` prints -- enforced
 * by tests/serve_test.cc, the `serve-differential` fuzz oracle, and
 * the CI serve leg's cmp against a fresh rockhier process.
 *
 * Determinism note: serve.* counters describe *traffic* (arrival
 * timing decides wave boundaries and dedup groups), so unlike the
 * pipeline counters they are not bit-identical run to run; response
 * payloads are.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.h"
#include "rock/pipeline.h"
#include "serve/protocol.h"
#include "support/parallel.h"

namespace rock::bir {
struct BinaryImage;
}

namespace rock::serve {

/** rockd knobs (CLI flags of tools/rockd.cc). */
struct ServerOptions {
    /** Unix-domain socket path to bind (required). */
    std::string socket_path;
    /** Size of the daemon's one pool, which runs every wave and every
     *  reconstruction in it: 0 = hardware, 1 = serial, N = exactly N. */
    int threads = 0;
    /** Base pipeline configuration. The daemon sets `cache` per wave
     *  and never reads `threads`: reconstructions run on its pool. */
    core::RockConfig rock;
    /** Shared artifact store; null = a private in-memory store (the
     *  daemon always caches -- that is its point). */
    std::shared_ptr<cache::ArtifactCache> cache;
    /** How long the batcher waits after the first queued request
     *  before sealing a wave (more arrivals = more dedup). */
    int batch_window_ms = 10;
    /** Hard cap on requests per wave. */
    std::size_t batch_max = 64;
    /** Admission timeout: a submit that waited longer than this in
     *  the queue is answered `timeout` instead of analyzed. <= 0
     *  disables. (Computation is not cancellable mid-flight, so the
     *  bound is enforced at dequeue.) */
    int request_timeout_ms = 120000;
    /** Frame caps enforced before reading request bodies. */
    protocol::FrameLimits limits;
    /**
     * TESTING/FAULT-INJECTION ONLY (`rockfuzz --inject-bug
     * drop-batch-dedup`): drop the content hash from the wave dedup
     * key, collapsing every submission of a wave into one group that
     * is served the group leader's bytes. The serve-differential
     * oracle catches this because a non-duplicate submission's
     * response stops matching a direct reconstruct().
     */
    bool collapse_dedup_for_testing = false;
};

/** Point-in-time daemon state (the `status` op, rockctl status). */
struct ServerStatus {
    double uptime_ms = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t submits = 0;
    std::uint64_t waves = 0;
    std::uint64_t queue_depth = 0;
    int workers = 0;
    bool draining = false;
};

/**
 * The exact bytes a `submit` response carries for @p image under
 * @p config: reconstruct, substitute surviving symbol names, render
 * the ASCII forest -- byte-for-byte what `rockhier IMAGE.vmi` prints
 * to stdout. Shared by the daemon, tests and the serve-differential
 * oracle so "bit-identical to a cold run" is one code path compared
 * against another process, not a reimplementation. Reconstructs on a
 * pool of resolve_threads(config.threads).
 */
std::string submit_response_text(const bir::BinaryImage& image,
                                 const core::RockConfig& config);

/** As above, reconstructing on @p pool (config.threads is not read). */
std::string submit_response_text(const bir::BinaryImage& image,
                                 const core::RockConfig& config,
                                 support::ThreadPool& pool);

/**
 * The daemon. start() binds and spawns the acceptor/batcher/reader
 * threads; request_shutdown() (or a client `shutdown` op) begins a
 * graceful drain -- the listener closes, queued submits finish, new
 * submits on live connections answer `draining`; wait() blocks until
 * the drain completes and every thread is joined.
 */
class Server {
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Bind + listen + spawn threads. FatalError on socket errors. */
    void start();

    /** Begin a graceful drain (idempotent, thread-safe). */
    void request_shutdown();

    /** Block until drained; joins every thread. Safe to call once
     *  after start(); returns immediately on later calls. */
    void wait();

    /** Drain finished (wait() would not block). */
    bool done() const;

    ServerStatus status() const;
    const ServerOptions& options() const { return options_; }
    /** The artifact store actually in use (options.cache or the
     *  private one). Valid after start(). */
    const std::shared_ptr<cache::ArtifactCache>& store() const
    {
        return cache_;
    }

  private:
    struct Conn;

    /** One queued submit, waiting for the batcher. */
    struct Pending {
        std::shared_ptr<Conn> conn;
        std::int64_t id = 0;
        std::vector<std::uint8_t> payload;
        std::chrono::steady_clock::time_point arrival;
    };

    void accept_loop();
    void reader_loop(std::shared_ptr<Conn> conn);
    void batcher_loop();
    void process_wave(std::vector<Pending>& wave);
    void handle_immediate(const std::shared_ptr<Conn>& conn,
                          const protocol::Request& request);
    std::string status_json() const;

    ServerOptions options_;
    std::shared_ptr<cache::ArtifactCache> cache_;
    std::unique_ptr<support::ThreadPool> pool_;
    int workers_ = 1;
    int listen_fd_ = -1;
    /** request_shutdown() writes a byte to [1] to wake the acceptor,
     *  which polls [0] next to listen_fd_; wait() closes both once the
     *  acceptor has joined (under queue_mutex_, like the write). */
    int wake_pipe_[2] = {-1, -1};
    std::chrono::steady_clock::time_point started_;

    std::thread acceptor_;
    std::thread batcher_;
    mutable std::mutex conns_mutex_;
    std::vector<std::shared_ptr<Conn>> conns_;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Pending> queue_;

    std::atomic<bool> started_flag_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> batcher_done_{false};
    std::atomic<bool> joined_{false};
    mutable std::mutex wait_mutex_;
    std::condition_variable done_cv_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> submits_{0};
    std::atomic<std::uint64_t> waves_{0};
};

} // namespace rock::serve
