#pragma once

/// Span tracing for the serving stack.
///
/// One process-wide Tracer owns a set of per-thread ring buffers of
/// SpanRecord entries. Requests are sampled at trace creation time
/// (`DNJ_TRACE_SAMPLE`: 0 = off, 1 = every request, N = one in N by
/// trace-id hash); an unsampled request carries trace_id 0 and every Span
/// on its path collapses to a thread-local load and a branch. Sampled
/// requests record closed spans into the current thread's ring — each ring
/// is guarded by its own mutex that only the owning thread and dump()
/// ever touch, so the hot path is an uncontended lock.
///
/// Determinism contract: tracing reads clocks and writes rings, but it
/// never feeds back into scheduling or payload bytes. The serve and net
/// byte-identity suites run with sampling forced to 1 to pin this.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dnj::obs {

/// Pipeline stages a span can label. Codec stages are recorded per
/// component batch; net stages by the event loop; queue/service stages by
/// the serve workers.
enum class Stage : std::uint8_t {
  kRequest = 0,        // whole-request root span
  kNetRead,            // socket read burst that completed the frame
  kNetParse,           // frame decode + request validation
  kNetWrite,           // response serialization hand-off to the socket
  kQueueWait,          // enqueue -> picked up by a worker
  kService,            // worker-side execution of one request
  kCacheProbe,         // result-cache digest + lookup
  kEncodeTile,         // color convert + tile into block planes
  kEncodeDct,          // forward DCT batch
  kEncodeQuant,        // quantize + zig-zag batch
  kEncodeEntropy,      // Huffman emit (tag = total blocks)
  kDecodeEntropy,      // header parse + Huffman decode (tag = scan bytes)
  kDecodePixels,       // dequantize + IDCT + untile + color
  kInfer,              // NN forward pass
  kJobAnalyze,         // design job: frequency analysis (tag = images)
  kJobAnneal,          // design job: SA segment (tag = iterations run)
  kJobRateSearch,      // design job: rate search (tag = encode calls)
  kJobLadder,          // design job: ladder registration (tag = rungs)
};
inline constexpr int kNumStages = 18;

const char* stage_name(Stage stage);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;  // 0 = root span of its trace
  Stage stage = Stage::kRequest;
  std::uint32_t thread = 0;  // ring index, not an OS tid (stable, compact)
  std::uint64_t start_ns = 0;  // steady-clock nanoseconds (monotonic)
  std::uint64_t end_ns = 0;
  std::uint64_t tag = 0;  // stage-specific payload (batch size, bytes, ...)
};

/// Monotonic nanosecond timestamp shared by every span producer.
std::uint64_t now_ns();

class Tracer {
 public:
  /// Process-wide instance. Constructed on first use; reads
  /// DNJ_TRACE_SAMPLE and DNJ_TRACE_RING once at that point. Never
  /// destroyed, so rings stay valid for threads that outlive main().
  static Tracer& instance();

  /// 0 = tracing off, 1 = sample every trace, N = one-in-N by trace-id
  /// hash. Overrides the environment knob (tests and benches use this).
  void set_sample_every(std::uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return sample_every() != 0; }

  /// Allocates a trace id and applies the sampling decision: a nonzero
  /// return means "record this trace"; 0 means the request is unsampled
  /// and every span on its path is a no-op.
  std::uint64_t start_trace();

  /// Span ids are process-unique so cross-thread parents stay unambiguous.
  std::uint32_t next_span_id() {
    return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends a closed span to the calling thread's ring (no-op when
  /// rec.trace_id is 0). Oldest records are overwritten on wrap.
  void record(const SpanRecord& rec);

  /// Snapshot of every ring, ordered by (trace_id, start_ns, span_id).
  std::vector<SpanRecord> dump() const;

  /// The dump as a self-describing JSON document (the wire / C ABI
  /// surface; tools/trace2chrome.py consumes this).
  std::string dump_json() const;

  /// Drops all recorded spans (rings stay allocated).
  void clear();

  /// Capacity for rings created after the call (existing rings keep
  /// theirs). Clamped to [64, 1M] records.
  void set_ring_capacity(std::size_t cap);
  std::size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    explicit Ring(std::uint32_t idx, std::size_t cap) : index(idx) {
      slots.reserve(cap);
      capacity = cap;
    }
    mutable std::mutex mutex;
    std::vector<SpanRecord> slots;  // grows to capacity, then wraps
    std::size_t capacity = 0;
    std::size_t next = 0;  // wrap cursor once slots.size() == capacity
    std::uint32_t index = 0;
  };

  Tracer();
  Ring& thread_ring();

  std::atomic<std::uint32_t> sample_every_{0};
  std::atomic<std::uint64_t> next_trace_{0};
  std::atomic<std::uint32_t> next_span_{0};
  std::atomic<std::size_t> ring_capacity_{4096};
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Thread-local trace context: which trace (if any) the current thread is
/// working for and the span that new child spans should parent to.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;
};
TraceContext& thread_trace_context();

/// RAII install/restore of the thread's trace context. Workers install
/// the job's trace before running it so codec-internal spans attach to
/// the right parent without plumbing ids through every signature.
class TraceScope {
 public:
  TraceScope(std::uint64_t trace_id, std::uint32_t parent) {
    TraceContext& ctx = thread_trace_context();
    saved_ = ctx;
    ctx.trace_id = trace_id;
    ctx.parent = parent;
  }
  ~TraceScope() { thread_trace_context() = saved_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span over the enclosing scope. Inactive (one TL load + branch)
/// when the thread has no sampled trace installed.
class Span {
 public:
  explicit Span(Stage stage, std::uint64_t tag = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  std::uint32_t id() const { return span_id_; }
  void set_tag(std::uint64_t tag) { tag_ = tag; }

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t tag_ = 0;
  std::uint32_t span_id_ = 0;
  std::uint32_t saved_parent_ = 0;
  Stage stage_ = Stage::kRequest;
  bool active_ = false;
};

/// Records a span with explicit endpoints — for intervals that start and
/// end on different threads (queue wait, whole-request roots). No-op when
/// trace_id is 0.
void record_span(std::uint64_t trace_id, std::uint32_t parent, Stage stage,
                 std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t tag = 0);

/// Same, with a caller-allocated span id — for roots whose id was handed
/// out at open time (children already parent to it) and whose record is
/// written at close. No-op when trace_id is 0.
void record_span_as(std::uint64_t trace_id, std::uint32_t span_id,
                    std::uint32_t parent, Stage stage, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t tag = 0);

}  // namespace dnj::obs
