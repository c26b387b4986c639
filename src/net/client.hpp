// Blocking protocol client — the reference peer for the event-loop server
// and the engine under tests/test_net.cpp and perfbench's wire workloads. One
// connection, synchronous socket I/O, the same FrameParser/marshalling
// code the server uses (agreement by construction).
//
// The send and receive halves are deliberately separate (send_request /
// recv_reply) so a caller can pipeline: write a burst of requests, then
// collect the responses and pair them back up by request id — responses
// may arrive out of order (several workers and cache hits reorder
// completions; the protocol's request_id exists exactly for this).
// call() is the one-shot convenience for when pipelining doesn't matter.
//
// Not thread-safe; one Client per thread (the concurrent-client tests run
// one per connection thread).
#pragma once

#include <cstdint>
#include <string>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/request.hpp"

namespace dnj::net {

class Client {
 public:
  Client() = default;

  /// Connects and arms SO_RCVTIMEO (so a dead server surfaces as an error,
  /// never a hang). False + *error on failure.
  bool connect(const std::string& host, std::uint16_t port, std::string* error,
               int recv_timeout_ms = 10000);
  void close() { fd_.reset(); }
  bool connected() const { return fd_.valid(); }

  /// Sends one request frame; returns the request id chosen for it (ids
  /// increment per client), or 0 with *error filled on failure.
  std::uint32_t send_request(const serve::Request& req, std::string* error);
  std::uint32_t send_ping(std::string* error);

  /// Sends an arbitrary pre-serialized frame (tests craft malformed ones).
  bool send_frame(const Frame& frame, std::string* error);
  /// Sends raw bytes verbatim (tests: garbage, truncated frames).
  bool send_raw(const void* data, std::size_t n, std::string* error);

  /// Blocks for the next response frame. False + *error on socket
  /// error/timeout/close or an unparseable response.
  bool recv_reply(WireReply* out, std::string* error);

  /// send_request + recv_reply, asserting the ids pair up. The reply may
  /// still be a typed error (check out->status).
  bool call(const serve::Request& req, WireReply* out, std::string* error);

  /// Round-trips a ping. False when the server is unreachable/draining.
  bool ping(std::string* error);

  /// Round-trips a kStats admin scrape (protocol v2) and fills *text with
  /// the rendered document (Prometheus text, metrics JSON, or trace JSON).
  bool scrape(StatsFormat format, std::string* text, std::string* error);

  // Design-job round trips (protocol v3). Like call(), these return true
  // whenever a structurally valid reply paired up — a typed refusal lands
  // in out->status/out->error, not in the return value.
  bool job_submit(const jobs::DesignJobSpec& spec, std::uint64_t requested_id,
                  WireReply* out, std::string* error);
  bool job_status(std::uint64_t job_id, WireReply* out, std::string* error);
  bool job_cancel(std::uint64_t job_id, WireReply* out, std::string* error);
  bool job_result(std::uint64_t job_id, WireReply* out, std::string* error);

 private:
  /// Sends `frame` (stamping the next request id) and pairs up the reply.
  bool round_trip(Frame frame, WireReply* out, std::string* error);

  ScopedFd fd_;
  FrameParser parser_;
  std::uint32_t next_id_ = 1;
};

}  // namespace dnj::net
