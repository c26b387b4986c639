#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(std::max<std::size_t>(n, 1)) {
  double total = 0.0;
  for (std::size_t k = 0; k < cdf_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(std::uint64_t& state) const {
  const double u = uniform01(state);
  return static_cast<std::size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                  cdf_.begin());
}

std::vector<Draw> make_schedule(const Mix& mix, std::uint64_t seed, std::size_t first,
                                std::size_t count) {
  const Zipf items(mix.pool, mix.item_zipf_s);
  const Zipf tenants(mix.tenants, mix.tenant_zipf_s);
  std::vector<Draw> out(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t i = first + k;
    // Per-draw stream: independent of every other draw, so windows compose.
    std::uint64_t state = seed * 0xD1342543DE82EF95ULL + i;
    splitmix64(state);
    Draw& d = out[k];
    const double u = uniform01(state);
    d.item = static_cast<std::uint32_t>(items.sample(state));
    d.tenant = static_cast<std::uint32_t>(tenants.sample(state));
    d.quality = static_cast<std::uint32_t>(splitmix64(state) %
                                           std::max<std::size_t>(mix.qualities, 1));
    if (u < mix.decode_share) {
      d.op = OpKind::kDecode;
      d.tenant = 0;
      d.quality = 0;
    } else if (u < mix.decode_share + mix.transcode_share) {
      d.op = OpKind::kTranscode;
    } else {
      d.op = d.tenant == 0 ? OpKind::kDeepn : OpKind::kTenantEncode;
    }
    d.stamp = mix.unique ? i + 1 : 0;
  }
  return out;
}

double repeat_share(const std::vector<Draw>& draws) {
  if (draws.empty()) return 0.0;
  std::set<std::tuple<int, std::uint32_t, std::uint32_t, std::uint32_t, std::uint64_t>> seen;
  std::size_t repeats = 0;
  for (const Draw& d : draws)
    if (!seen.emplace(static_cast<int>(d.op), d.item, d.tenant, d.quality, d.stamp).second)
      ++repeats;
  return static_cast<double>(repeats) / static_cast<double>(draws.size());
}

}  // namespace perfbench
