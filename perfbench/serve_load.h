/**
 * @file
 * Open-loop load for rockd's wire protocol: requests go out on a
 * fixed schedule whether or not earlier ones have been answered,
 * pipelined over a few connections (serve::Client waits for each
 * reply, which would turn a stall into less offered load).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

/** Per-request outcome of run_open_loop(); times are milliseconds
 *  since the load started. */
struct OpenLoopResult {
    std::vector<double> due_ms;
    std::vector<double> sent_ms;
    std::vector<double> received_ms;
    /** 1 when a response frame for the request arrived. */
    std::vector<std::uint8_t> answered;
    std::vector<rock::serve::protocol::Response> responses;
    /** Largest send delay behind schedule. */
    double lag_ms_max = 0.0;
    /** Requests sent a whole inter-arrival gap or more behind. */
    std::size_t late = 0;
};

/**
 * Send payloads[schedule[i]] as request i at i / @p rate seconds,
 * round-robin over @p connections connections to @p socket_path,
 * and wait up to @p timeout_ms after the last send for every
 * response. @p before_send, when set, runs on the sending thread
 * just before each request goes out. Throws support::FatalError when
 * a connection fails.
 */
OpenLoopResult
run_open_loop(const std::string& socket_path,
              const std::vector<std::vector<std::uint8_t>>& payloads,
              const std::vector<std::size_t>& schedule, double rate,
              int connections, int timeout_ms,
              const std::function<void()>& before_send = {});

} // namespace perfbench
