#include "serve/digest.hpp"

#include <algorithm>
#include <vector>

#include "jpeg/encoder.hpp"

namespace dnj::serve {

namespace {

std::uint64_t mix_i32(std::int32_t v, std::uint64_t seed) {
  return fnv1a(&v, sizeof(v), seed);
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest_image(const image::Image& img, std::uint64_t seed) {
  std::uint64_t h = mix_i32(img.width(), seed);
  h = mix_i32(img.height(), h);
  h = mix_i32(img.channels(), h);
  return img.empty() ? h : fnv1a(img.data().data(), img.data().size(), h);
}

std::uint64_t digest_table(const jpeg::QuantTable& table, std::uint64_t seed) {
  return fnv1a(table.natural().data(),
               table.natural().size() * sizeof(table.natural()[0]), seed);
}

std::uint64_t digest_config(const jpeg::EncoderConfig& config, std::uint64_t seed) {
  // One source of truth: hash the config's canonical serialization (the
  // same bytes EncodeOptions::digest() hashes in the public API) instead
  // of hand-listing fields here. A field added to EncoderConfig is added
  // to append_config_bytes once and every derived digest follows. The
  // scratch buffer is thread-local because this runs on the submission
  // hot path (cache keys) — zero allocations once
  // warm, like the chained-FNV implementation it replaced.
  static thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  jpeg::append_config_bytes(config, scratch);
  return fnv1a(scratch.data(), scratch.size(), seed);
}

std::uint64_t request_config_digest(const Request& req) {
  switch (req.kind) {
    case RequestKind::kEncode:
    case RequestKind::kTranscode:
      return digest_config(req.config);
    case RequestKind::kDeepnEncode: {
      // Without a registry in hand, the per-request config is the tenant
      // name plus the quality scaling. Clamp exactly like the handler
      // does, so requests that compute the same thing share a key. (The
      // service itself substitutes deepn_config_digest over the resolved
      // table contents — see the header.)
      const std::uint64_t seed =
          req.tenant.empty() ? kFnvOffset
                             : fnv1a(req.tenant.data(), req.tenant.size());
      return mix_i32(std::clamp(req.quality, 1, 100), seed);
    }
    case RequestKind::kDecode:
    case RequestKind::kInfer:
      break;
  }
  return mix_i32(static_cast<std::int32_t>(req.kind), kFnvOffset);
}

std::uint64_t request_input_digest(const Request& req) {
  const std::uint64_t kind_seed = mix_i32(static_cast<std::int32_t>(req.kind), kFnvOffset);
  switch (req.kind) {
    case RequestKind::kEncode:
    case RequestKind::kDeepnEncode:
      return digest_image(req.image, kind_seed);
    case RequestKind::kDecode:
    case RequestKind::kTranscode:
    case RequestKind::kInfer:
      break;
  }
  return fnv1a(req.bytes.data(), req.bytes.size(), kind_seed);
}

CacheKey request_key(const Request& req) {
  return {request_input_digest(req), request_config_digest(req)};
}

std::uint64_t deepn_config_digest(std::uint64_t tables_digest, int quality) {
  return mix_i32(std::clamp(quality, 1, 100),
                 fnv1a(&tables_digest, sizeof(tables_digest)));
}

bool cacheable(RequestKind kind) {
  return kind == RequestKind::kEncode || kind == RequestKind::kTranscode ||
         kind == RequestKind::kDeepnEncode;
}

}  // namespace dnj::serve
