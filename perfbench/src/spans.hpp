// In-memory span log for the traced run. The benchmark records one span
// per layer call (name, start, end, parent, trace id shared by one op),
// keeps them in memory while the workload runs and writes them out once at
// the end, in the document layout tools/trace2chrome.py reads:
//   {"clock": "steady_ns", "spans": [{trace, span, parent, stage, thread,
//    start_ns, end_ns, tag}]}
//
// A span's self time is its duration minus the time its children cover
// (children are clipped to the parent and overlaps counted once), so the
// self times of one trace sum to its root's duration by construction. What
// a Cursor clips off a replayed span is recorded, so a replay that overruns
// its parent shows instead of vanishing into the sum.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t trace = 0;
  std::uint32_t span = 0;    ///< 1-based id, unique within the log
  std::uint32_t parent = 0;  ///< 0 = root of its trace
  std::string stage;         ///< "<layer>.<what>", e.g. "jpeg.fdct"
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t tag = 0;
};

class SpanLog {
 public:
  /// Appends a span and returns its id. end_ns < start_ns is clamped to an
  /// empty span.
  std::uint32_t add(std::uint64_t trace, std::uint32_t parent, const std::string& stage,
                    std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t tag = 0,
                    std::uint32_t thread = 0);

  /// Appends every span of `other`, renumbering ids to stay unique.
  void append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Self time of every span, indexed like spans().
  std::vector<std::uint64_t> self_ns() const;

  /// Sum of self time per stage name over the whole log.
  std::map<std::string, double> self_ns_by_stage() const;

  /// Sum of self time per layer (the stage name up to its first '.').
  std::map<std::string, double> self_ns_by_layer() const;

  /// Sum of root-span durations (the end-to-end time the log explains).
  double root_ns() const;

  /// Records `ns` of a `stage` span's duration that did not fit its parent.
  void add_clipped(const std::string& stage, std::uint64_t ns) {
    clipped_ns_[stage] += static_cast<double>(ns);
  }
  /// Clipped time per layer (the stage name up to its first '.').
  std::map<std::string, double> clipped_ns_by_layer() const;

  /// Writes the trace2chrome.py input document; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> clipped_ns_;
};

/// Lays out child spans one after another inside a parent interval: each
/// call places a child of `dur_ns` right after the previous one, clipped so
/// nothing runs past the parent's end (the clipped part is recorded in the
/// log). Used for layer calls the benchmark
/// times separately on the op's own input (replays), which have a
/// duration but no position of their own inside the op.
class Cursor {
 public:
  Cursor(SpanLog& log, std::uint64_t trace, std::uint32_t parent, std::uint64_t start_ns,
         std::uint64_t end_ns)
      : log_(log), trace_(trace), parent_(parent), at_(start_ns), end_(end_ns) {}

  /// Places the next child; returns its id.
  std::uint32_t place(const std::string& stage, std::uint64_t dur_ns, std::uint64_t tag = 0);
  /// Interval of the most recently placed child.
  std::uint64_t last_start() const { return last_start_; }
  std::uint64_t last_end() const { return at_; }

 private:
  SpanLog& log_;
  std::uint64_t trace_;
  std::uint32_t parent_;
  std::uint64_t at_;
  std::uint64_t end_;
  std::uint64_t last_start_ = 0;
};

}  // namespace perfbench
