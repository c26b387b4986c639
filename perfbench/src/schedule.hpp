// Seeded op schedules for the open-loop generator. Draw i of a schedule is
// a pure function of (mix, seed, i), so any window of it can be produced
// on its own and the same seed always yields the same ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64(std::uint64_t& state);

/// Uniform double in [0, 1) from the generator above.
double uniform01(std::uint64_t& state);

/// Zipf(s) over {0, .., n-1}: P(k) proportional to 1 / (k + 1)^s
/// (s = 0 is uniform). Sampled by inverting the cumulative distribution.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(std::uint64_t& state) const;

 private:
  std::vector<double> cdf_;
};

enum class OpKind : std::uint8_t {
  kDeepn = 0,         ///< deepn_encode op under the server's own DeepN pair (tenant 0)
  kTenantEncode = 1,  ///< encode op carrying tenant t's quality-scaled tables
  kTranscode = 2,     ///< transcode of a pooled JPEG into tenant t's tables
  kDecode = 3,        ///< decode of a pooled JPEG
};

struct Draw {
  OpKind op = OpKind::kDeepn;
  std::uint32_t item = 0;     ///< index into the input pool
  std::uint32_t tenant = 0;   ///< unused by kDecode
  std::uint32_t quality = 0;  ///< index into the workload's quality list
  std::uint64_t stamp = 0;    ///< 0 = pooled input verbatim, else a unique stamp
};

/// What a workload's requests look like.
struct Mix {
  std::size_t pool = 1;        ///< inputs in the pool
  double item_zipf_s = 0.0;    ///< skew of input popularity (0 = uniform)
  std::size_t tenants = 1;
  double tenant_zipf_s = 0.0;  ///< skew of tenant popularity
  std::size_t qualities = 1;
  double transcode_share = 0.0;
  double decode_share = 0.0;   ///< the rest are encodes (kDeepn / kTenantEncode)
  bool unique = false;         ///< stamp every draw so no two inputs are equal
};

/// Draws [first, first + count) of the schedule for (mix, seed).
std::vector<Draw> make_schedule(const Mix& mix, std::uint64_t seed, std::size_t first,
                                std::size_t count);

/// Share of draws whose whole request (op, input, tenant, quality, stamp)
/// already occurred earlier in `draws` — the repeats a result cache of
/// unbounded size would hit.
double repeat_share(const std::vector<Draw>& draws);

}  // namespace perfbench
