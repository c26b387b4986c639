// Request/response vocabulary of the serving layer.
//
// One Request struct covers every operation the service exposes; which
// fields are inputs depends on the kind. Responses are plain values — the
// service fulfills a std::future<Response> per request, so results cross
// threads by move with no shared mutable state.
//
// The serving determinism contract: a Response's payload (bytes, image
// pixels, probs) is bit-identical to the equivalent synchronous
// single-threaded call, regardless of worker count, cache hits, or arrival
// order. Only the observability fields (cache_hit, latencies) depend on
// scheduling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "jpeg/encoder.hpp"

namespace dnj::serve {

enum class RequestKind : int {
  kEncode = 0,   ///< image + config          -> JFIF bytes
  kDecode,       ///< JFIF bytes              -> image
  kTranscode,    ///< JFIF bytes + config     -> re-encoded JFIF bytes
  kDeepnEncode,  ///< image + quality         -> bytes under the service's
                 ///  DeepN-JPEG table pair, IJG-scaled to `quality`
  kInfer,        ///< JFIF bytes              -> class probabilities from the
                 ///  service's model, run on the decoded image
};

inline constexpr int kNumRequestKinds = 5;

const char* kind_name(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kEncode;
  image::Image image;               ///< kEncode / kDeepnEncode input
  std::vector<std::uint8_t> bytes;  ///< kDecode / kTranscode / kInfer input
  jpeg::EncoderConfig config;       ///< kEncode / kTranscode target config
  int quality = 50;                 ///< kDeepnEncode IJG scaling (50 = base table)

  /// kDeepnEncode only: name of a serve::TableRegistry tenant whose base
  /// table pair replaces the service-wide deepn pair. Empty = use the
  /// service-wide pair. An unknown name fails with a typed kError.
  std::string tenant;

  // Observability only — never digested, never serialized, never part of
  // the determinism contract. A front end (src/net) that already opened a
  // trace sets these so serve/codec spans attach under its root span;
  // when trace_id is 0 the service opens (and owns) its own trace.
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
};

enum class Status : int {
  kOk = 0,
  kRejected,  ///< reject admission policy: queue was full at submission
  kShutdown,  ///< submitted after shutdown began
  kError,     ///< the handler threw; `error` carries the message
};

const char* status_name(Status status);

struct Response {
  Status status = Status::kOk;
  std::string error;  ///< set when status == kError / kRejected / kShutdown

  std::vector<std::uint8_t> bytes;  ///< kEncode / kTranscode / kDeepnEncode
  image::Image image;               ///< kDecode
  std::vector<float> probs;         ///< kInfer

  // Observability — never part of the determinism contract.
  bool cache_hit = false;
  double queue_us = 0.0;    ///< submission -> worker pickup
  double service_us = 0.0;  ///< worker pickup -> completion
};

}  // namespace dnj::serve
