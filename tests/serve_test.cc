// The rockd serving layer: daemon lifecycle, bit-identity of served
// responses against direct reconstruction, concurrent duplicate-heavy
// clients, deterministic rejection of malformed frames, admission
// timeouts, and the graceful-drain protocol. Runs the real daemon on
// a real unix socket -- only the process boundary of tools/rockd.cc
// is elided.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bir/serialize.h"
#include "cache/artifact_cache.h"
#include "corpus/generator.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/error.h"
#include "toyc/compiler.h"

namespace {

using namespace rock;
using serve::protocol::Code;

std::string
test_socket(const std::string& tag)
{
    return "/tmp/rock_serve_test_" + std::to_string(::getpid()) +
           "_" + tag + ".sock";
}

std::vector<std::uint8_t>
corpus_image_bytes(int classes, unsigned seed,
                   bir::BinaryImage* image_out = nullptr)
{
    corpus::GeneratorSpec spec;
    spec.num_classes = classes;
    spec.num_trees = 3;
    spec.max_depth = 4;
    spec.scenarios_per_class = 2;
    spec.seed = seed;
    toyc::CompileResult compiled =
        toyc::compile(corpus::generate_program(spec));
    if (image_out)
        *image_out = compiled.image;
    return bir::save_image(compiled.image);
}

serve::ServerOptions
base_options(const std::string& tag)
{
    serve::ServerOptions options;
    options.socket_path = test_socket(tag);
    options.threads = 2;
    options.batch_window_ms = 5;
    return options;
}

std::string
payload_text(const serve::protocol::Response& response)
{
    return std::string(response.payload.begin(),
                       response.payload.end());
}

/** Raw client socket for hand-crafted (malformed) frames. */
int
raw_connect(const std::string& path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)));
    return fd;
}

/** Read one response frame off a raw socket; fails the test on a
 *  wire or header error. */
serve::protocol::Response
read_response(int fd)
{
    serve::protocol::Frame frame;
    EXPECT_EQ(serve::protocol::WireStatus::Ok,
              serve::protocol::read_frame(fd, &frame));
    serve::protocol::Response response;
    EXPECT_TRUE(
        serve::protocol::parse_response_header(frame.header,
                                               &response));
    response.payload = std::move(frame.payload);
    return response;
}

TEST(ServeLifecycle, StartStatusDrainShutdown)
{
    serve::Server server(base_options("lifecycle"));
    server.start();
    EXPECT_FALSE(server.done());

    serve::Client client(server.options().socket_path);
    serve::protocol::Response status = client.status();
    ASSERT_EQ(Code::Ok, status.code);
    EXPECT_NE(payload_text(status).find("\"draining\":false"),
              std::string::npos);

    server.request_shutdown();
    server.wait();
    EXPECT_TRUE(server.done());
    // The socket is gone: new connections must fail, not hang.
    EXPECT_THROW(serve::Client(server.options().socket_path).status(),
                 support::FatalError);
}

TEST(ServeLifecycle, ClientShutdownOpDrains)
{
    serve::Server server(base_options("oplifecycle"));
    server.start();
    serve::Client client(server.options().socket_path);
    EXPECT_EQ(Code::Ok, client.shutdown_daemon().code);
    server.wait();
    EXPECT_TRUE(server.done());
}

TEST(ServeSubmit, BitIdenticalToDirectReconstructionAndCacheWarm)
{
    bir::BinaryImage image;
    std::vector<std::uint8_t> bytes =
        corpus_image_bytes(24, 7, &image);

    serve::ServerOptions options = base_options("identity");
    serve::Server server(options);
    server.start();
    std::string expected =
        serve::submit_response_text(image, server.options().rock);

    serve::Client client(server.options().socket_path);
    serve::protocol::Response first = client.submit(bytes);
    ASSERT_EQ(Code::Ok, first.code);
    EXPECT_EQ(expected, payload_text(first));

    // A resubmission is served warm (artifact hits) yet stays
    // byte-identical -- the serving-layer determinism contract.
    serve::protocol::Response again = client.submit(bytes);
    ASSERT_EQ(Code::Ok, again.code);
    EXPECT_EQ(payload_text(first), payload_text(again));
    EXPECT_GT(server.store()->stats().hits, 0u);

    server.request_shutdown();
    server.wait();
}

TEST(ServeSubmit, ConcurrentClientsInterleavedDuplicates)
{
    bir::BinaryImage image_a, image_b;
    std::vector<std::uint8_t> bytes_a =
        corpus_image_bytes(20, 3, &image_a);
    std::vector<std::uint8_t> bytes_b =
        corpus_image_bytes(20, 4, &image_b);

    serve::ServerOptions options = base_options("concurrent");
    options.batch_window_ms = 20; // encourage mixed waves
    serve::Server server(options);
    server.start();
    std::string expected_a =
        serve::submit_response_text(image_a, server.options().rock);
    std::string expected_b =
        serve::submit_response_text(image_b, server.options().rock);
    ASSERT_NE(expected_a, expected_b);

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::vector<int> mismatches(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            serve::Client client(server.options().socket_path);
            for (int r = 0; r < kRounds; ++r) {
                bool use_a = (c + r) % 2 == 0;
                serve::protocol::Response response = client.submit(
                    use_a ? bytes_a : bytes_b);
                if (response.code != Code::Ok ||
                    payload_text(response) !=
                        (use_a ? expected_a : expected_b))
                    ++mismatches[static_cast<std::size_t>(c)];
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(0, mismatches[static_cast<std::size_t>(c)])
            << "client " << c;

    server.request_shutdown();
    server.wait();
}

TEST(ServeReject, MalformedFramesGetDeterministicCodes)
{
    serve::ServerOptions options = base_options("reject");
    options.limits.max_header = 1024;
    options.limits.max_payload = 4096;
    serve::Server server(options);
    server.start();
    const std::string& path = server.options().socket_path;

    { // Wrong magic: rejected, connection closed.
        int fd = raw_connect(path);
        std::uint8_t prefix[16] = {'X', 'X', 'X', 'X'};
        ASSERT_EQ(static_cast<ssize_t>(sizeof(prefix)),
                  ::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL));
        EXPECT_EQ(Code::BadMagic, read_response(fd).code);
        ::close(fd);
    }
    { // Oversized header length: rejected from the prefix alone.
        std::string huge(2048, 'h');
        int fd = raw_connect(path);
        serve::protocol::write_frame(fd, huge, nullptr, 0);
        EXPECT_EQ(Code::HeaderOversized, read_response(fd).code);
        ::close(fd);
    }
    { // Oversized payload length: likewise, body never sent.
        int fd = raw_connect(path);
        std::uint8_t prefix[16] = {};
        std::memcpy(prefix, "RKD1", 4);
        prefix[8] = 0xff; // payload_len = huge
        prefix[15] = 0x7f;
        ASSERT_EQ(static_cast<ssize_t>(sizeof(prefix)),
                  ::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL));
        EXPECT_EQ(Code::PayloadOversized, read_response(fd).code);
        ::close(fd);
    }
    { // Truncated frame: half a prefix, then half-close.
        int fd = raw_connect(path);
        ASSERT_EQ(4, ::send(fd, "RKD1", 4, MSG_NOSIGNAL));
        ::shutdown(fd, SHUT_WR);
        EXPECT_EQ(Code::Truncated, read_response(fd).code);
        ::close(fd);
    }
    { // Unparseable header JSON: bad-header, connection survives.
        int fd = raw_connect(path);
        serve::protocol::write_frame(fd, "not json", nullptr, 0);
        EXPECT_EQ(Code::BadHeader, read_response(fd).code);
        serve::protocol::write_frame(
            fd, serve::protocol::request_header(9, "status"),
            nullptr, 0);
        serve::protocol::Response ok = read_response(fd);
        EXPECT_EQ(Code::Ok, ok.code);
        EXPECT_EQ(9, ok.id);
        ::close(fd);
    }
    { // Unknown op.
        serve::Client client(path);
        EXPECT_EQ(Code::BadOp, client.call("transmogrify").code);
    }
    { // Garbage payload bytes on a well-formed submit.
        serve::Client client(path);
        std::vector<std::uint8_t> garbage = {1, 2, 3, 4};
        EXPECT_EQ(Code::BadImage, client.submit(garbage).code);
    }

    server.request_shutdown();
    server.wait();
}

TEST(ServeStats, KeepsOnlyTheLastRequestTraces)
{
    // A long-lived daemon must not grow with its request count: each
    // image reconstructs into a trace of its own, `stats` reports the
    // last kKeptTraces of them, and the process trace gets nothing.
    std::vector<std::uint8_t> bytes = corpus_image_bytes(16, 8);
    serve::ServerOptions options = base_options("traces");
    options.batch_window_ms = 0;
    // A one-byte budget evicts every artifact: each submit runs cold.
    options.cache = std::make_shared<cache::ArtifactCache>(
        cache::CacheOptions{"", 1});
    serve::Server server(options);
    server.start();
    const std::size_t process_spans = obs::span_log().size();

    serve::Client client(server.options().socket_path);
    constexpr std::size_t kSubmits = 3 * serve::Server::kKeptTraces;
    for (std::size_t i = 0; i < kSubmits; ++i)
        ASSERT_EQ(Code::Ok, client.submit(bytes).code) << i;
    serve::protocol::Response stats = client.stats();
    ASSERT_EQ(Code::Ok, stats.code);
    EXPECT_EQ(obs::span_log().size(), process_spans);

    const obs::MetricsReport report =
        obs::MetricsReport::from_json(payload_text(stats));
    std::vector<std::size_t> spans_per_request;
    for (const obs::SpanRecord& span : report.spans) {
        if (span.parent < 0) {
            EXPECT_EQ(span.name, "pipeline.reconstruct");
            spans_per_request.push_back(0);
        }
        ASSERT_FALSE(spans_per_request.empty());
        // The budget keeps the entry written last, the manifest, so
        // every other run opens the zero-length warm marker too.
        if (span.name != "pipeline.warm")
            ++spans_per_request.back();
    }
    // Whole requests only, the pool workers' spans included: every
    // kept trace holds the same tree of the same image.
    EXPECT_EQ(spans_per_request.size(), serve::Server::kKeptTraces);
    EXPECT_GT(spans_per_request.front(), 8u);
    for (std::size_t n : spans_per_request)
        EXPECT_EQ(n, spans_per_request.front());

    server.request_shutdown();
    server.wait();
}

TEST(ServeReject, AdmissionTimeoutAnswersTimeout)
{
    serve::ServerOptions options = base_options("timeout");
    options.request_timeout_ms = 1;
    options.batch_window_ms = 100; // guarantee the queue wait > 1 ms
    serve::Server server(options);
    server.start();

    serve::Client client(server.options().socket_path);
    std::vector<std::uint8_t> bytes = corpus_image_bytes(16, 5);
    EXPECT_EQ(Code::Timeout, client.submit(bytes).code);

    server.request_shutdown();
    server.wait();
}

TEST(ServeDrain, PipelinedSubmitsAcrossShutdownAreAllAnswered)
{
    bir::BinaryImage image;
    std::vector<std::uint8_t> bytes =
        corpus_image_bytes(16, 6, &image);

    serve::ServerOptions options = base_options("drain");
    options.batch_window_ms = 50;
    serve::Server server(options);
    server.start();
    std::string expected =
        serve::submit_response_text(image, server.options().rock);

    // One connection, three back-to-back frames: a submit that will
    // still be queued when the pipelined shutdown lands, then a
    // submit arriving after the drain began. Every request gets an
    // answer; the queued one completes, the late one is refused.
    int fd = raw_connect(server.options().socket_path);
    serve::protocol::write_frame(
        fd, serve::protocol::request_header(1, "submit"),
        bytes.data(), bytes.size());
    serve::protocol::write_frame(
        fd, serve::protocol::request_header(2, "shutdown"), nullptr,
        0);
    serve::protocol::write_frame(
        fd, serve::protocol::request_header(3, "submit"),
        bytes.data(), bytes.size());

    std::map<std::int64_t, serve::protocol::Response> by_id;
    for (int i = 0; i < 3; ++i) {
        serve::protocol::Response response = read_response(fd);
        by_id[response.id] = response;
    }
    ::close(fd);

    ASSERT_EQ(3u, by_id.size());
    EXPECT_EQ(Code::Ok, by_id[1].code);
    EXPECT_EQ(expected, payload_text(by_id[1]));
    EXPECT_EQ(Code::Ok, by_id[2].code);
    EXPECT_EQ(Code::Draining, by_id[3].code);

    server.wait();
    EXPECT_TRUE(server.done());
}

} // namespace
