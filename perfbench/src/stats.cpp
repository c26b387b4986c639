#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t min_samples_for(double q) {
  if (q <= 0.5) return 1;
  if (q >= 1.0) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(std::ceil(1.0 / (1.0 - q) - 1e-9));
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.n = values.size();
  if (values.empty()) return p;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  p.value = values[below] + (values[above] - values[below]) * frac;
  p.resolved = p.n >= min_samples_for(q);
  return p;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = percentile(values, 0.5).value;
  s.lo = percentile(values, 0.1).value;
  s.hi = percentile(values, 0.9).value;
  return s;
}

}  // namespace perfbench
