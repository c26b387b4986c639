// Order statistics for the benchmark: interpolated percentiles that carry
// the sample count they were taken over, and the {median, lo, hi, n} row
// summary every reported number uses.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples behind it. A tail
/// percentile taken over too few samples is an interpolation between the
/// largest values, not a measurement of the tail; `resolved` says whether
/// at least one sample lies strictly beyond the requested rank
/// (n >= 1 / (1 - q) for q < 1).
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  bool resolved = false;
};

/// Linearly interpolated percentile, q in [0, 1] (the "linear" method:
/// rank q * (n - 1) between the two bracketing order statistics). An empty
/// input gives {0, 0, false}.
Percentile percentile(std::vector<double> values, double q);

/// Minimum sample count for `q` to be resolved (ceil(1 / (1 - q)); 1 for
/// the median and below).
std::size_t min_samples_for(double q);

/// Median with the p10 / p90 spread, over n samples.
struct Summary {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& values);

}  // namespace perfbench
