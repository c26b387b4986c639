// Content digests for the serving layer's caches and batching decisions.
//
// FNV-1a over explicit field serializations: fast, allocation-free, and
// stable for the life of a process (cache keys never leave the process).
// Keys pair an input digest with a config digest; both fold in enough
// structure (dimensions, kind tags, every EncoderConfig field including
// full table contents) that two requests with equal keys describe the same
// computation. 64+64 bits keyed per field keeps accidental collisions out
// of reach of any realistic working set; a collision would only ever
// surface a wrong-but-valid cached payload, and the byte-identity suite
// compares against uncached synchronous calls precisely to catch such
// wiring mistakes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/request.hpp"

namespace dnj::serve {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte span, chained through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed = kFnvOffset);

/// Digest of an image: dimensions, channel count and pixel payload.
std::uint64_t digest_image(const image::Image& img, std::uint64_t seed = kFnvOffset);

/// Digest of every field of an encoder config (tables included verbatim).
std::uint64_t digest_config(const jpeg::EncoderConfig& config,
                            std::uint64_t seed = kFnvOffset);

/// Digest of a quantization table's 64 natural-order steps.
std::uint64_t digest_table(const jpeg::QuantTable& table, std::uint64_t seed = kFnvOffset);

/// Cache key: (input digest, config digest). The request kind is folded
/// into the input digest, the kind-relevant parameters into the config
/// digest, so distinct operations can never alias.
struct CacheKey {
  std::uint64_t input = 0;
  std::uint64_t config = 0;

  bool operator==(const CacheKey& o) const { return input == o.input && config == o.config; }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The members are already well-mixed digests; one multiply-fold keeps
    // the pair from cancelling.
    return static_cast<std::size_t>(k.input * kFnvPrime ^ k.config);
  }
};

/// The key under which a request's result is cached and against which
/// micro-batch compatibility is decided (equal `config` halves = the same
/// tables/settings, so a warm context stays warm across the batch).
CacheKey request_key(const Request& req);

/// The config half of request_key alone — all the submission path needs
/// (batching compatibility and admission never look at the input half).
/// O(1) in the payload size, so rejecting under overload stays O(1).
/// For kDeepnEncode this mixes the tenant *name*; the serving layer, which
/// can resolve the name against its registry, keys on the resolved table
/// contents instead (deepn_config_digest) so identical configurations
/// alias across tenants and registry generations.
std::uint64_t request_config_digest(const Request& req);

/// Config digest of a DeepN-quality encode: the digest of the base table
/// pair (service-wide or a tenant's TenantEntry::base_digest) folded with
/// the clamped quality. This is the digest the service batches and caches
/// kDeepnEncode requests on — pure content, no names, no
/// registry versions, so equal computations share warmth everywhere.
std::uint64_t deepn_config_digest(std::uint64_t tables_digest, int quality);

/// The input half of request_key alone: the (kind-seeded) digest of the
/// request payload. O(payload); workers compute it lazily, only when a
/// result-cache lookup will actually happen.
std::uint64_t request_input_digest(const Request& req);

/// True for kinds whose result payload is a byte vector worth caching
/// (encode, transcode, deepn-encode).
bool cacheable(RequestKind kind);

}  // namespace dnj::serve
