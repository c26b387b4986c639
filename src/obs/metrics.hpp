#pragma once

/// Unified metrics plane.
///
/// A Registry owns typed instruments (Counter / Gauge / HistogramHandle)
/// registered by name + labels, plus removable *collector* callbacks for
/// values that another structure owns (the serve layer's result/table
/// caches and submission queue). Instruments are the store: a subsystem
/// counts into them and reads its own stats back from them. gather()
/// combines both into one deterministic sample list, which the two
/// exporters (Prometheus text, JSON) render for the wire `stats` op,
/// api::Service::metrics_text(), and the C ABI.
///
/// Thread safety: instrument lookup/creation and collector registration
/// take the registry mutex; Counter::inc and Gauge updates are plain
/// atomics (safe from any thread, no registry lock); HistogramHandle has
/// its own mutex. Instruments have stable addresses for the registry's
/// lifetime, so callers cache `Counter&` once and update lock-free.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace dnj::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value; set() and add() from any thread.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Mutex-guarded wrapper over stats::Histogram that also tracks the exact
/// sum and max (the linear bins clamp, so the max would otherwise
/// saturate at `hi`). Renders as a Prometheus summary.
class HistogramHandle {
 public:
  HistogramHandle(double lo, double hi, int bins) : hist_(lo, hi, bins) {}

  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    hist_.add(v);
    sum_ += v;
    if (v > max_) max_ = v;
  }

  stats::Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_;
  }
  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.total();
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_;
  }
  double quantile(double p) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.quantile(p);
  }

 private:
  mutable std::mutex mutex_;
  stats::Histogram hist_;
  double sum_ = 0.0;
  double max_ = 0.0;
};

enum class SampleKind : std::uint8_t { kCounter, kGauge };

/// One exported time-series point. Collectors append these; owned
/// instruments are converted to them inside gather().
struct Sample {
  std::string name;
  Labels labels;
  double value = 0.0;
  SampleKind kind = SampleKind::kGauge;
};

class Registry {
 public:
  /// Returns the instrument registered under (name, labels), creating it
  /// on first use. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  HistogramHandle& histogram(const std::string& name, const Labels& labels,
                             double lo, double hi, int bins);

  /// Collector callbacks run inside gather() under the registry mutex;
  /// they must not call back into this registry. remove_collector blocks
  /// until any in-flight gather() finishes, so a collector that captures
  /// `this` of some object is safe to remove in that object's destructor.
  using Collector = std::function<void(std::vector<Sample>&)>;
  std::uint64_t add_collector(Collector fn);
  void remove_collector(std::uint64_t id);

  /// All samples — owned instruments plus collector output — sorted by
  /// (name, labels) so renders are deterministic. Histograms expand into
  /// quantile/sum/count/max series here.
  std::vector<Sample> gather() const;

  /// Prometheus text exposition (with # TYPE lines, escaped label values).
  std::string render_prometheus() const;

  /// The same samples as a JSON array of {name, labels, value} objects.
  std::string render_json() const;

  /// Prometheus label-value escaping: backslash, double-quote, newline.
  static std::string escape_label_value(const std::string& value);

 private:
  struct HistEntry {
    std::string name;
    Labels labels;
    std::unique_ptr<HistogramHandle> handle;
  };

  static std::string instrument_key(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, HistEntry> histograms_;
  // Key -> (name, labels) so gather() can reconstruct identities.
  std::map<std::string, std::pair<std::string, Labels>> identities_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_ = 0;
};

}  // namespace dnj::obs
