// Shared plumbing of the benchmark binary: command-line options, clocks
// and process probes, the machine stamp, and the result document (numeric
// rows plus the one-line summary printed last).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

std::uint64_t now_ns();           ///< steady clock
double process_cpu_s();           ///< user + sys of the whole process
double thread_cpu_s();            ///< CPU time of the calling thread
double peak_rss_mb();             ///< peak resident set (VmHWM), MiB
void reset_peak_rss();            ///< restarts the peak at the current resident set
unsigned nproc();                 ///< online CPUs available to this process

/// Machine-wide CPU accounting from /proc/stat (ticks, all CPUs).
struct HostTicks {
  unsigned long long total = 0, steal = 0;
};
HostTicks host_ticks();
/// Share of the machine's CPU time the hypervisor stole between two
/// readings: the context for a run whose timings moved.
double steal_share(const HostTicks& from, const HostTicks& to);

/// Runs `fn` and returns its wall time in nanoseconds.
template <typename Fn>
std::uint64_t time_ns(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

/// The result of one run. Rows go to the full document (stdout and
/// <out_dir>/<workload>[-trace].json); metrics go to the final line and
/// are rows as well.
class Result {
 public:
  explicit Result(const Options& options) : options_(options) {}

  void row(const std::string& name, const std::string& unit, const Summary& s);
  void row(const std::string& name, const std::string& unit, double value);
  void metric(const std::string& name, const std::string& unit, double value);
  void note(const std::string& key, const std::string& value);

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A wrong payload (or a broken self-consistency check): the run fails.
  void mark_incorrect(const std::string& why);
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the document and the final line; returns the exit code
  /// (0 only when every output was correct).
  int emit();

 private:
  struct RowData {
    std::string name, unit;
    Summary s;
  };
  struct MetricData {
    std::string name, unit;
    double value;
  };
  const Options& options_;
  std::vector<RowData> rows_;
  std::vector<MetricData> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Median of the `setups` set-up times (seconds) as reported for setup_s.
double median_of(std::vector<double> values);

}  // namespace perfbench
