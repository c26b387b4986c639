// Marshalling between wire frames (net/frame.hpp) and the serving layer's
// Request/Response vocabulary — the translation step between "bytes on a
// socket" and "work in the MPMC queue".
//
// The full payload formats live in docs/PROTOCOL.md; in short, request
// payloads are the op-specific concatenation of three documented blocks
// (options, image, raw stream), and OK response payloads start with a
// fixed 24-byte observability block (cache/latency — never part of
// the determinism contract) followed by the op's result. Error responses
// carry a UTF-8 message instead.
//
// Everything here is pure data transformation: no sockets, no threads, no
// service state — which is what lets tests/test_net_framing.cpp pin
// marshalling round trips and every rejection path without opening a
// connection, and guarantees client and server agree by construction
// (both link this one implementation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobs/design_job.hpp"
#include "net/frame.hpp"
#include "serve/request.hpp"

namespace dnj::net {

/// Fixed-size prefix of every op-carrying OK response payload.
inline constexpr std::size_t kObservabilitySize = 24;

// --------------------------------------------------------------- requests

/// Builds the request frame for `req` (any serve kind, ping excluded):
/// serializes the payload and stamps the header's config digest. The
/// request_id is the caller's correlation value, echoed by the server.
Frame make_request(std::uint32_t request_id, const serve::Request& req);

/// An empty liveness-probe request (answered by the server's event loop
/// without touching the service queue).
Frame make_ping(std::uint32_t request_id);

/// Requested rendering of a kStats scrape (the one-byte request payload).
enum class StatsFormat : std::uint8_t {
  kPrometheus = 0,  ///< metrics as Prometheus text exposition
  kJson = 1,        ///< metrics as a JSON document
  kTraceJson = 2,   ///< span-trace dump as JSON (tools/trace2chrome.py input)
};

/// An admin metrics/trace scrape (protocol v2). Like ping, it is answered
/// by the server's event loop directly — no service queue. The OK response
/// payload is the rendered UTF-8 text with NO observability block.
Frame make_stats_request(std::uint32_t request_id, StatsFormat format);

/// The response to a kStats request: `text` as the whole payload.
Frame make_stats_response(std::uint32_t request_id, const std::string& text);

/// Parses a request frame into a serve request. Returns kOk and fills
/// *out, or the typed failure the server should answer with:
///   kMalformed       — truncated/over-long blocks, unknown op, or a
///                      header config digest that does not match the
///                      payload's options section
///   kInvalidArgument — structurally sound but semantically out of range
///                      (dimensions, channels, quality, restart interval,
///                      empty stream, unknown stats format)
/// kPing and kStats parse with *out untouched — the caller answers them
/// directly (for kStats, re-read the format byte from frame.payload[0]).
/// Job ops (op_is_job) also return kOk with *out untouched: the server
/// answers them on its loop thread via parse_job_submit /
/// parse_job_id_request, which do the real payload validation.
WireStatus parse_request(const Frame& frame, serve::Request* out);

// -------------------------------------------------------------- responses

/// Builds the response frame for a completed service request. Maps the
/// serve status onto the wire (kOk/kRejected/kShutdown pass through,
/// kError becomes kInternal), packs the observability block + result
/// payload on success and the error message otherwise. `op` and
/// `config_digest` echo the request's header fields.
Frame make_response(std::uint32_t request_id, Op op, std::uint64_t config_digest,
                    const serve::Response& resp);

/// Builds a protocol-error response (no service round trip): status is one
/// of the wire-only codes (kMalformed/kVersionSkew) or a refusal the
/// server decides itself (e.g. kRejected for the connection cap), payload
/// is the UTF-8 `message`.
Frame make_error(std::uint32_t request_id, Op op, WireStatus status,
                 const std::string& message);

/// A parsed response as a client sees it. Exactly one result field is
/// populated on kOk, matching the op; `error` carries the message
/// otherwise. The observability fields mirror serve::Response's.
struct WireReply {
  WireStatus status = WireStatus::kOk;
  Op op = Op::kPing;
  std::uint32_t request_id = 0;
  std::string error;

  std::vector<std::uint8_t> bytes;  ///< encode / transcode / deepn result
  image::Image image;               ///< decode result
  std::vector<float> probs;         ///< infer result

  std::uint64_t job_id = 0;         ///< job-submit result
  jobs::JobStatus job_status;       ///< job-status result
  jobs::JobResult job_result;       ///< job-result result

  bool cache_hit = false;
  double queue_us = 0.0;
  double service_us = 0.0;
};

/// Parses a response frame. Returns false only when the frame is not a
/// structurally valid response (wrong type, truncated blocks) — a typed
/// error response parses fine and lands in out->status/out->error.
bool parse_response(const Frame& frame, WireReply* out);

// ---------------------------------------------------------- job ops (v3)
//
// The design-job ops are protocol v3. Like kPing/kStats they are answered
// on the server's loop thread (JobManager calls are O(1) map lookups;
// execution happens on the manager's own worker pool), their header
// config_digest is 0, and their OK responses carry NO observability
// block. Byte layouts are in docs/PROTOCOL.md.

/// Builds a kJobSubmit request: the spec (tenant, rate targets, SA
/// schedule, optional resume checkpoint) plus the labelled sample images.
/// `requested_job_id` 0 lets the server assign the id.
Frame make_job_submit(std::uint32_t request_id, std::uint64_t requested_job_id,
                      const jobs::DesignJobSpec& spec);

/// Parses a kJobSubmit payload. kOk fills both outputs; kMalformed for
/// truncated/over-long blocks, kInvalidArgument for out-of-range fields
/// (zero images, oversized counts, bad dimensions).
WireStatus parse_job_submit(const Frame& frame, std::uint64_t* requested_job_id,
                            jobs::DesignJobSpec* spec);

/// Builds a kJobStatus / kJobCancel / kJobResult request — all three share
/// the same 8-byte payload (the job id, LE u64).
Frame make_job_id_request(std::uint32_t request_id, Op op, std::uint64_t job_id);

/// Parses the shared job-id payload of kJobStatus/kJobCancel/kJobResult.
WireStatus parse_job_id_request(const Frame& frame, std::uint64_t* job_id);

// OK responses for each job op (errors use make_error as everywhere else).
Frame make_job_submit_response(std::uint32_t request_id, std::uint64_t job_id);
Frame make_job_status_response(std::uint32_t request_id, const jobs::JobStatus& status);
Frame make_job_cancel_response(std::uint32_t request_id);
Frame make_job_result_response(std::uint32_t request_id, const jobs::JobResult& result);

// ------------------------------------------------------------------ blocks

/// Serializes the options block for an encoder config (the exact bytes the
/// header's config digest hashes). Exposed for tests and foreign-client
/// vector generation.
void append_options(const jpeg::EncoderConfig& config, std::vector<std::uint8_t>& out);

/// The wire config digest rule: FNV-1a 64 (offset 14695981039346656037,
/// prime 1099511628211) over the payload's options section — the options
/// block for kEncode/kTranscode, the 4-byte quality field for
/// kDeepnEncode, nothing (digest 0) for kDecode/kInfer/kPing.
std::uint64_t wire_config_digest(const serve::Request& req);

}  // namespace dnj::net
