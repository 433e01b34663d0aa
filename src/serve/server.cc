#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>

#include "bir/image.h"
#include "bir/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "support/error.h"

namespace rock::serve {

namespace {

namespace counters {

obs::Counter&
connections()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.connections");
    return c;
}

obs::Counter&
requests()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.requests");
    return c;
}

obs::Counter&
submits()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.requests.submit");
    return c;
}

obs::Counter&
batches()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.batches");
    return c;
}

obs::Counter&
batch_unique()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.batch.unique");
    return c;
}

obs::Counter&
dedup_hits()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.dedup.hits");
    return c;
}

obs::Counter&
rejects()
{
    static obs::Counter& c =
        obs::Registry::global().counter("serve.rejects");
    return c;
}

obs::Gauge&
queue_depth()
{
    static obs::Gauge& g =
        obs::Registry::global().gauge("serve.queue_depth");
    return g;
}

obs::Histogram&
latency()
{
    static obs::Histogram& h = obs::Registry::global().histogram(
        "serve.request_latency_ms");
    return h;
}

obs::Histogram&
batch_size()
{
    static obs::Histogram& h = obs::Registry::global().histogram(
        "serve.batch_size",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    return h;
}

} // namespace counters

double
ms_between(std::chrono::steady_clock::time_point from,
           std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

} // namespace

/** One accepted connection: the fd, a write lock serializing response
 *  frames (batcher waves interleave with immediate replies), and the
 *  reader thread draining request frames. */
struct Server::Conn {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    std::thread reader;

    /** Frame-atomic best-effort response write. */
    void
    send(const protocol::Response& response)
    {
        std::lock_guard<std::mutex> lock(write_mutex);
        if (!open.load(std::memory_order_relaxed))
            return;
        protocol::write_frame(fd, protocol::response_header(response),
                              response.payload.data(),
                              response.payload.size());
    }

    /** Unblock the reader and drop the socket (idempotent). */
    void
    close_both()
    {
        bool was_open = open.exchange(false);
        if (was_open)
            ::shutdown(fd, SHUT_RDWR);
    }

    ~Conn()
    {
        close_both();
        if (fd >= 0)
            ::close(fd);
    }
};

std::string
submit_response_text(const bir::BinaryImage& image,
                     const core::RockConfig& config)
{
    support::ThreadPool pool(support::resolve_threads(config.threads));
    return submit_response_text(image, config, pool);
}

std::string
submit_response_text(const bir::BinaryImage& image,
                     const core::RockConfig& config,
                     support::ThreadPool& pool)
{
    core::ReconstructionResult result =
        core::reconstruct(image, config, pool);
    core::Hierarchy hierarchy = result.hierarchy;
    // Same labels as tools/rockhier.cc: the symbol names the binary
    // retained (stripped images have none).
    hierarchy.set_names(image.symbols);
    return hierarchy.to_string();
}

Server::Server(ServerOptions options) : options_(std::move(options))
{
}

Server::~Server()
{
    if (started_flag_.load()) {
        request_shutdown();
        wait();
    }
}

void
Server::start()
{
    support::check(!options_.socket_path.empty(),
                   "rockd: --socket path is required");
    support::check(!started_flag_.load(),
                   "rockd: server already started");

    cache_ = options_.cache
                 ? options_.cache
                 : std::make_shared<cache::ArtifactCache>(
                       cache::CacheOptions{});
    workers_ = support::resolve_threads(options_.threads);
    pool_ = std::make_unique<support::ThreadPool>(workers_);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    support::check(
        options_.socket_path.size() < sizeof(addr.sun_path),
        "rockd: socket path too long: " + options_.socket_path);
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    support::check(listen_fd_ >= 0, "rockd: socket() failed");
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        // A stale socket file from a crashed daemon is reclaimable
        // exactly when nobody answers it.
        bool reclaimed = false;
        if (errno == EADDRINUSE) {
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (probe >= 0) {
                bool live = ::connect(
                                probe,
                                reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) == 0;
                ::close(probe);
                if (!live) {
                    ::unlink(options_.socket_path.c_str());
                    reclaimed =
                        ::bind(listen_fd_,
                               reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
                }
            }
        }
        if (!reclaimed) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            support::fatal("rockd: cannot bind " +
                           options_.socket_path + ": " +
                           std::strerror(errno));
        }
    }
    if (::listen(listen_fd_, 128) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        support::fatal("rockd: listen() failed on " +
                       options_.socket_path);
    }

    if (::pipe(wake_pipe_) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        support::fatal("rockd: pipe() failed");
    }

    started_ = std::chrono::steady_clock::now();
    started_flag_.store(true);
    acceptor_ = std::thread([this] { accept_loop(); });
    batcher_ = std::thread([this] { batcher_loop(); });
}

void
Server::request_shutdown()
{
    if (draining_.exchange(true))
        return;
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_cv_.notify_all();
    if (wake_pipe_[1] >= 0) {
        // Written once per server into an empty pipe: never blocks.
        const char byte = 0;
        ssize_t written = ::write(wake_pipe_[1], &byte, 1);
        (void)written;
    }
}

bool
Server::done() const
{
    return batcher_done_.load();
}

void
Server::wait()
{
    if (!started_flag_.load() || joined_.exchange(true))
        return;
    // The batcher exits once draining_ is set and the queue is empty;
    // the acceptor exits on the same flag. A client-initiated
    // `shutdown` op sets draining_ itself, so this also returns for
    // remote shutdowns.
    {
        std::unique_lock<std::mutex> lock(wait_mutex_);
        done_cv_.wait(lock, [this] { return batcher_done_.load(); });
    }
    if (acceptor_.joinable())
        acceptor_.join();
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        for (int& fd : wake_pipe_) {
            ::close(fd);
            fd = -1;
        }
    }
    if (batcher_.joinable())
        batcher_.join();
    // Every queued submit has been answered; drop the connections to
    // unblock their readers, then join them.
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns.swap(conns_);
    }
    for (auto& conn : conns)
        conn->close_both();
    for (auto& conn : conns) {
        if (conn->reader.joinable())
            conn->reader.join();
    }
}

ServerStatus
Server::status() const
{
    ServerStatus s;
    s.uptime_ms =
        ms_between(started_, std::chrono::steady_clock::now());
    s.requests = requests_.load();
    s.submits = submits_.load();
    s.waves = waves_.load();
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        s.queue_depth = queue_.size();
    }
    s.workers = workers_;
    s.draining = draining_.load();
    return s;
}

std::string
Server::status_json() const
{
    ServerStatus s = status();
    return "{\"uptime_ms\":" + obs::json_number(s.uptime_ms) +
           ",\"requests\":" + std::to_string(s.requests) +
           ",\"submits\":" + std::to_string(s.submits) +
           ",\"waves\":" + std::to_string(s.waves) +
           ",\"queue_depth\":" + std::to_string(s.queue_depth) +
           ",\"workers\":" + std::to_string(s.workers) +
           ",\"draining\":" + (s.draining ? "true" : "false") + "}";
}

void
Server::accept_loop()
{
    // No timeout: request_shutdown() wakes the poll through the pipe.
    while (!draining_.load()) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {wake_pipe_[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) <= 0 || !(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        counters::connections().add();
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            // Reap connections whose readers already finished, so a
            // long-lived daemon does not accumulate dead entries.
            std::erase_if(conns_,
                          [](const std::shared_ptr<Conn>& c) {
                              if (c->open.load() || !c->reader.joinable())
                                  return false;
                              c->reader.join();
                              return true;
                          });
            conns_.push_back(conn);
        }
        conn->reader =
            std::thread([this, conn] { reader_loop(conn); });
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
}

void
Server::reader_loop(std::shared_ptr<Conn> conn)
{
    for (;;) {
        protocol::Frame frame;
        protocol::WireStatus ws =
            protocol::read_frame(conn->fd, &frame, options_.limits);
        if (ws == protocol::WireStatus::Eof)
            break;
        if (ws != protocol::WireStatus::Ok) {
            // Deterministic reject, then drop the connection: the
            // stream cannot be resynchronized after a framing error.
            protocol::Response reject;
            switch (ws) {
            case protocol::WireStatus::BadMagic:
                reject.code = protocol::Code::BadMagic;
                break;
            case protocol::WireStatus::HeaderOversized:
                reject.code = protocol::Code::HeaderOversized;
                break;
            case protocol::WireStatus::PayloadOversized:
                reject.code = protocol::Code::PayloadOversized;
                break;
            default:
                reject.code = protocol::Code::Truncated;
                break;
            }
            reject.error = protocol::code_name(reject.code);
            counters::rejects().add();
            conn->send(reject);
            break;
        }

        counters::requests().add();
        requests_.fetch_add(1);
        protocol::Request request;
        if (!protocol::parse_request_header(frame.header, &request)) {
            protocol::Response reject;
            reject.code = protocol::Code::BadHeader;
            reject.error = "header is not a rockd-v1 request";
            counters::rejects().add();
            conn->send(reject);
            continue; // framing was intact; keep the stream
        }

        if (request.op == "submit") {
            counters::submits().add();
            submits_.fetch_add(1);
            if (draining_.load()) {
                protocol::Response reject;
                reject.id = request.id;
                reject.code = protocol::Code::Draining;
                reject.error = "daemon is draining";
                counters::rejects().add();
                conn->send(reject);
                continue;
            }
            Pending pending;
            pending.conn = conn;
            pending.id = request.id;
            pending.payload = std::move(frame.payload);
            pending.arrival = std::chrono::steady_clock::now();
            bool accepted = false;
            {
                // batcher_done_ flips under this lock, so a submit
                // racing the batcher's exit is either swept into the
                // final wave or rejected here -- never lost.
                std::lock_guard<std::mutex> lock(queue_mutex_);
                if (!batcher_done_.load()) {
                    queue_.push_back(std::move(pending));
                    counters::queue_depth().set(
                        static_cast<double>(queue_.size()));
                    accepted = true;
                }
            }
            if (accepted) {
                queue_cv_.notify_all();
            } else {
                protocol::Response reject;
                reject.id = request.id;
                reject.code = protocol::Code::Draining;
                reject.error = "daemon is draining";
                counters::rejects().add();
                conn->send(reject);
            }
        } else {
            handle_immediate(conn, request);
        }
    }
    conn->close_both();
}

void
Server::handle_immediate(const std::shared_ptr<Conn>& conn,
                         const protocol::Request& request)
{
    protocol::Response response;
    response.id = request.id;
    if (request.op == "status") {
        std::string json = status_json();
        response.payload.assign(json.begin(), json.end());
    } else if (request.op == "stats") {
        std::string json = obs::MetricsReport::capture().to_json();
        response.payload.assign(json.begin(), json.end());
    } else if (request.op == "shutdown") {
        request_shutdown();
    } else {
        response.code = protocol::Code::BadOp;
        response.error = "unknown op '" + request.op + "'";
        counters::rejects().add();
    }
    conn->send(response);
}

void
Server::batcher_loop()
{
    const auto window =
        std::chrono::milliseconds(std::max(0, options_.batch_window_ms));
    for (;;) {
        std::vector<Pending> wave;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || draining_.load();
            });
            if (queue_.empty() && draining_.load()) {
                // Flip under the lock: concurrent submits either
                // landed in the queue before this (impossible -- it
                // is empty) or will observe the flag and be answered
                // `draining` by their reader.
                batcher_done_.store(true);
                break;
            }
            // Seal the wave when the window after the *first* queued
            // request elapses, the wave cap is reached, or a drain
            // flushes everything immediately.
            auto deadline = queue_.front().arrival + window;
            while (queue_.size() < options_.batch_max &&
                   !draining_.load()) {
                if (queue_cv_.wait_until(lock, deadline) ==
                    std::cv_status::timeout)
                    break;
            }
            std::size_t take =
                std::min(queue_.size(), options_.batch_max);
            wave.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                wave.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            counters::queue_depth().set(
                static_cast<double>(queue_.size()));
        }
        if (!wave.empty())
            process_wave(wave);
    }
    {
        std::lock_guard<std::mutex> lock(wait_mutex_);
        done_cv_.notify_all();
    }
}

void
Server::process_wave(std::vector<Pending>& wave)
{
    counters::batches().add();
    waves_.fetch_add(1);
    counters::batch_size().observe(static_cast<double>(wave.size()));

    const auto now = std::chrono::steady_clock::now();
    auto respond = [&](Pending& pending,
                       protocol::Response&& response) {
        response.id = pending.id;
        counters::latency().observe(ms_between(
            pending.arrival, std::chrono::steady_clock::now()));
        pending.conn->send(response);
    };

    // Group by payload content. The collapse_dedup_for_testing fault
    // drops the hash from the key, merging distinct images into one
    // group -- the bug class the serve-differential oracle exists to
    // catch.
    struct Group {
        std::vector<std::size_t> members;
        protocol::Response response;
    };
    std::map<std::uint64_t, Group> groups;
    std::vector<std::size_t> expired;
    for (std::size_t i = 0; i < wave.size(); ++i) {
        Pending& pending = wave[i];
        if (options_.request_timeout_ms > 0 &&
            ms_between(pending.arrival, now) >
                options_.request_timeout_ms) {
            expired.push_back(i);
            continue;
        }
        std::uint64_t key =
            options_.collapse_dedup_for_testing
                ? 0
                : cache::fnv1a(pending.payload.data(),
                               pending.payload.size());
        groups[key].members.push_back(i);
    }
    for (std::size_t i : expired) {
        protocol::Response response;
        response.code = protocol::Code::Timeout;
        response.error = "queued past the admission timeout";
        counters::rejects().add();
        respond(wave[i], std::move(response));
    }

    counters::batch_unique().add(groups.size());
    auto compute = [&](Group& group) {
        const Pending& leader = wave[group.members.front()];
        protocol::Response& response = group.response;
        try {
            bir::BinaryImage image =
                bir::load_image(leader.payload);
            core::RockConfig config = options_.rock;
            config.cache = cache_;
            std::string text =
                submit_response_text(image, config, *pool_);
            response.payload.assign(text.begin(), text.end());
        } catch (const support::FatalError& e) {
            response.code = protocol::Code::BadImage;
            response.error = e.what();
            counters::rejects().add();
        } catch (const std::exception& e) {
            response.code = protocol::Code::Internal;
            response.error = e.what();
            counters::rejects().add();
        }
    };

    // One behaviour per unique image: a task on the daemon's pool that
    // reconstructs on the same pool, so a lone image's family chains
    // get every thread and several images share them. Any schedule
    // yields bit-identical bytes -- the determinism contract is
    // thread-count independent.
    std::vector<support::Task> tasks;
    for (auto& [key, group] : groups)
        tasks.push_back({[&compute, &group] { compute(group); }, {}});
    pool_->run_tasks(tasks);

    for (auto& [key, group] : groups) {
        if (group.response.ok() && group.members.size() > 1)
            counters::dedup_hits().add(group.members.size() - 1);
        for (std::size_t i : group.members) {
            protocol::Response copy = group.response;
            respond(wave[i], std::move(copy));
        }
    }
}

} // namespace rock::serve
