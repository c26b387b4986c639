#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace dnj::obs {

namespace {

std::uint64_t fnv1a64(std::uint64_t v) {
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(v);
}

constexpr std::size_t kMinRing = 64;
constexpr std::size_t kMaxRing = std::size_t{1} << 20;

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kRequest: return "request";
    case Stage::kNetRead: return "net_read";
    case Stage::kNetParse: return "net_parse";
    case Stage::kNetWrite: return "net_write";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kService: return "service";
    case Stage::kCacheProbe: return "cache_probe";
    case Stage::kEncodeTile: return "encode_tile";
    case Stage::kEncodeDct: return "encode_dct";
    case Stage::kEncodeQuant: return "encode_quant";
    case Stage::kEncodeEntropy: return "encode_entropy";
    case Stage::kDecodeEntropy: return "decode_entropy";
    case Stage::kDecodePixels: return "decode_pixels";
    case Stage::kInfer: return "infer";
    case Stage::kJobAnalyze: return "job_analyze";
    case Stage::kJobAnneal: return "job_anneal";
    case Stage::kJobRateSearch: return "job_rate_search";
    case Stage::kJobLadder: return "job_ladder";
  }
  return "unknown";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() {
  set_sample_every(static_cast<std::uint32_t>(env_u64("DNJ_TRACE_SAMPLE", 0)));
  set_ring_capacity(env_u64("DNJ_TRACE_RING", 4096));
}

Tracer& Tracer::instance() {
  // Intentionally leaked: worker threads (and their thread-local ring
  // pointers) may outlive static destruction order.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_ring_capacity(std::size_t cap) {
  ring_capacity_.store(std::clamp(cap, kMinRing, kMaxRing),
                       std::memory_order_relaxed);
}

std::uint64_t Tracer::start_trace() {
  const std::uint32_t n = sample_every();
  if (n == 0) return 0;
  // Trace ids are never 0 — 0 is the "unsampled" sentinel everywhere.
  const std::uint64_t id = next_trace_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n == 1) return id;
  return (fnv1a64(id) % n == 0) ? id : 0;
}

Tracer::Ring& Tracer::thread_ring() {
  // One ring per (thread, tracer) pair; the tracer is a leaked singleton,
  // so a raw pointer cached in a thread_local stays valid for the thread's
  // whole life even though the ring itself is owned by rings_.
  thread_local Ring* ring = nullptr;
  if (!ring) {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings_.push_back(std::make_unique<Ring>(
        static_cast<std::uint32_t>(rings_.size()), ring_capacity()));
    ring = rings_.back().get();
  }
  return *ring;
}

void Tracer::record(const SpanRecord& rec) {
  if (rec.trace_id == 0) return;
  Ring& ring = thread_ring();
  std::lock_guard<std::mutex> lock(ring.mutex);
  SpanRecord stamped = rec;
  stamped.thread = ring.index;
  if (ring.slots.size() < ring.capacity) {
    ring.slots.push_back(stamped);
  } else {
    ring.slots[ring.next] = stamped;
    ring.next = (ring.next + 1) % ring.capacity;
  }
}

std::vector<SpanRecord> Tracer::dump() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mutex);
      out.insert(out.end(), ring->slots.begin(), ring->slots.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.span_id < b.span_id;
  });
  return out;
}

std::string Tracer::dump_json() const {
  const std::vector<SpanRecord> spans = dump();
  std::string out;
  out.reserve(64 + spans.size() * 96);
  out += "{\"clock\":\"steady_ns\",\"sample_every\":";
  out += std::to_string(sample_every());
  out += ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"trace\":";
    out += std::to_string(s.trace_id);
    out += ",\"span\":";
    out += std::to_string(s.span_id);
    out += ",\"parent\":";
    out += std::to_string(s.parent_id);
    out += ",\"stage\":\"";
    out += stage_name(s.stage);
    out += "\",\"thread\":";
    out += std::to_string(s.thread);
    out += ",\"start_ns\":";
    out += std::to_string(s.start_ns);
    out += ",\"end_ns\":";
    out += std::to_string(s.end_ns);
    out += ",\"tag\":";
    out += std::to_string(s.tag);
    out += '}';
  }
  out += "]}";
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->slots.clear();
    ring->next = 0;
  }
}

TraceContext& thread_trace_context() {
  thread_local TraceContext ctx;
  return ctx;
}

Span::Span(Stage stage, std::uint64_t tag) {
  TraceContext& ctx = thread_trace_context();
  if (ctx.trace_id == 0) return;
  Tracer& tracer = Tracer::instance();
  active_ = true;
  stage_ = stage;
  tag_ = tag;
  span_id_ = tracer.next_span_id();
  saved_parent_ = ctx.parent;
  ctx.parent = span_id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  TraceContext& ctx = thread_trace_context();
  SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = span_id_;
  rec.parent_id = saved_parent_;
  rec.stage = stage_;
  rec.start_ns = start_ns_;
  rec.end_ns = now_ns();
  rec.tag = tag_;
  Tracer::instance().record(rec);
  ctx.parent = saved_parent_;
}

void record_span(std::uint64_t trace_id, std::uint32_t parent, Stage stage,
                 std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t tag) {
  if (trace_id == 0) return;
  record_span_as(trace_id, Tracer::instance().next_span_id(), parent, stage,
                 start_ns, end_ns, tag);
}

void record_span_as(std::uint64_t trace_id, std::uint32_t span_id,
                    std::uint32_t parent, Stage stage, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t tag) {
  if (trace_id == 0) return;
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = span_id;
  rec.parent_id = parent;
  rec.stage = stage;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.tag = tag;
  Tracer::instance().record(rec);
}

}  // namespace dnj::obs
