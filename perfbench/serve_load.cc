#include "serve_load.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "support/error.h"

namespace perfbench {

using namespace rock::serve;
using Clock = std::chrono::steady_clock;

namespace {

/** A connected unix-socket fd, closed on destruction. */
class Connection {
  public:
    Connection(const std::string& path, int timeout_ms)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        rock::support::check(path.size() < sizeof(addr.sun_path),
                             "socket path too long: " + path);
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        rock::support::check(fd_ >= 0, "socket() failed");
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            rock::support::fatal("cannot connect to " + path);
        }
        timeval tv{};
        tv.tv_sec = timeout_ms / 1000;
        tv.tv_usec = (timeout_ms % 1000) * 1000;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace

OpenLoopResult
run_open_loop(const std::string& socket_path,
              const std::vector<std::vector<std::uint8_t>>& payloads,
              const std::vector<std::size_t>& schedule, double rate,
              int connections, int timeout_ms,
              const std::function<void()>& before_send)
{
    const std::size_t n = schedule.size();
    const std::size_t conns =
        std::clamp<std::size_t>(static_cast<std::size_t>(connections), 1,
                                std::max<std::size_t>(n, 1));
    OpenLoopResult out;
    out.due_ms.resize(n);
    out.sent_ms.resize(n);
    out.received_ms.resize(n);
    out.answered.assign(n, 0);
    out.responses.resize(n);

    std::vector<std::unique_ptr<Connection>> fds;
    for (std::size_t c = 0; c < conns; ++c)
        fds.push_back(std::make_unique<Connection>(socket_path, timeout_ms));

    // Request i (id i + 1) travels on connection i % conns, so each
    // reader owns a disjoint set of result slots.
    const Clock::time_point start = Clock::now();
    auto ms_now = [&] {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         start)
            .count();
    };
    // jthread: an exception below still joins the started readers.
    std::vector<std::jthread> readers;
    for (std::size_t c = 0; c < conns; ++c) {
        readers.emplace_back([&, c] {
            std::size_t expected = 0;
            for (std::size_t i = c; i < n; i += conns)
                ++expected;
            for (std::size_t got = 0; got < expected; ++got) {
                protocol::Frame frame;
                if (protocol::read_frame(fds[c]->fd(), &frame) !=
                    protocol::WireStatus::Ok)
                    return;
                protocol::Response response;
                if (!protocol::parse_response_header(frame.header,
                                                     &response))
                    return;
                const std::int64_t id = response.id;
                if (id < 1 || static_cast<std::size_t>(id) > n ||
                    (static_cast<std::size_t>(id) - 1) % conns != c)
                    return;
                const std::size_t i = static_cast<std::size_t>(id) - 1;
                response.payload = std::move(frame.payload);
                out.received_ms[i] = ms_now();
                out.responses[i] = std::move(response);
                out.answered[i] = 1;
            }
        });
    }

    const double gap_ms = 1000.0 / rate;
    for (std::size_t i = 0; i < n; ++i) {
        out.due_ms[i] = static_cast<double>(i) * gap_ms;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            out.due_ms[i])));
        if (before_send)
            before_send();
        out.sent_ms[i] = ms_now();
        const double lag = out.sent_ms[i] - out.due_ms[i];
        out.lag_ms_max = std::max(out.lag_ms_max, lag);
        if (lag >= gap_ms)
            ++out.late;
        const auto& payload = payloads[schedule[i]];
        protocol::write_frame(
            fds[i % conns]->fd(),
            protocol::request_header(static_cast<std::int64_t>(i + 1),
                                     "submit"),
            payload.data(), payload.size());
    }
    // Join before returning: the readers write into `out`.
    for (std::jthread& t : readers)
        t.join();
    return out;
}

} // namespace perfbench
