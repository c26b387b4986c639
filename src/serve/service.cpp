#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "api/convert.hpp"
#include "api/session.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/decoder.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"

namespace dnj::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Steady-clock time point -> the tracer's nanosecond timeline (both are
/// steady_clock, so span timestamps and latency math share one clock).
std::uint64_t to_trace_ns(Clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
          .count());
}

/// The quantiles the registry's summary expansion renders for `h`, read
/// through the same calls, plus its exact max.
LatencySummary summarize(const obs::HistogramHandle& h) {
  return {h.count(), h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.max()};
}

}  // namespace

/// One queued request: the request itself, its completion (a promise OR a
/// callback — never both), and everything the worker needs without
/// re-deriving it (cache key, pinned tenant snapshot, submission
/// timestamp).
struct TranscodeService::Job {
  Request req;
  std::promise<Response> promise;
  Callback done;  ///< when set, completion goes here instead of the promise
  CacheKey key;
  bool cacheable = false;
  /// Pinned at submission: the tenant configuration this request will run
  /// under, whatever the registry does meanwhile. Null for tenantless
  /// requests.
  std::shared_ptr<const TenantEntry> tenant;
  std::uint64_t tenant_hash = 0;  ///< fnv1a(tenant name); 0 = tenantless
  Clock::time_point enqueue;

  // Observability only — which trace this job records spans into (0 =
  // unsampled), the root span its children attach to, and whether the
  // service opened the trace itself (then it also records the root; a net
  // front end that opened the trace records its own root instead).
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
  bool trace_owned = false;
};

TranscodeService::TranscodeService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(std::make_shared<obs::Registry>()),
      result_cache_(config_.cache_capacity, config_.cache_max_bytes,
                    config_.tenant_quota_bytes),
      table_cache_(config_.table_cache_capacity) {
  config_.workers = std::max(1, config_.workers);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_batch = std::max(1, config_.max_batch);
  if (!config_.registry) config_.registry = std::make_shared<TableRegistry>();
  obs::Registry& m = *metrics_;
  submitted_ = &m.counter("serve_requests_submitted_total");
  rejected_ = &m.counter("serve_requests_rejected_total");
  refused_shutdown_ = &m.counter("serve_requests_refused_shutdown_total");
  submit_errors_ = &m.counter("serve_submit_errors_total");
  completed_ = &m.counter("serve_requests_completed_total");
  errors_ = &m.counter("serve_requests_errors_total");
  for (int k = 0; k < kNumRequestKinds; ++k)
    per_kind_[k] = &m.counter("serve_requests_by_kind_total",
                              {{"kind", kind_name(static_cast<RequestKind>(k))}});
  batches_ = &m.counter("serve_batches_total");
  batched_requests_ = &m.counter("serve_batched_requests_total");
  ctx_ = {&m.counter("serve_ctx_huffman_builds_total"),
          &m.counter("serve_ctx_reciprocal_builds_total"),
          &m.counter("serve_ctx_quality_table_builds_total"),
          &m.counter("serve_ctx_decoder_builds_total")};
  queue_wait_ = &m.histogram("serve_queue_wait_us", {}, kLatencyLoUs, kLatencyHiUs,
                             kLatencyBins);
  service_time_ = &m.histogram("serve_service_time_us", {}, kLatencyLoUs,
                               kLatencyHiUs, kLatencyBins);
  total_ = &m.histogram("serve_total_us", {}, kLatencyLoUs, kLatencyHiUs, kLatencyBins);
  deepn_tables_digest_ =
      digest_table(config_.deepn_chroma, digest_table(config_.deepn_luma));

  queue_ = std::make_unique<runtime::MpmcQueue<Job>>(config_.queue_capacity);

  // A private pool, not ThreadPool::global(): pumps occupy their worker for
  // the service's whole lifetime, which would starve the shared pool's
  // parallel loops. Each pump is one submitted task; with exactly as many
  // workers as pumps every worker runs exactly one pump, and the pool
  // destructor's drain guarantee is what shutdown() leans on.
  workers_ = std::make_unique<runtime::ThreadPool>(static_cast<unsigned>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) workers_->submit([this] { pump(); });

  // Registered last: the collector reads the caches and the queue.
  // remove_collector in the destructor blocks until any in-flight gather()
  // returns, so the captured `this` can never dangle even when the
  // registry shared_ptr outlives this service.
  metrics_collector_ = metrics_->add_collector(
      [this](std::vector<obs::Sample>& out) { collect_metrics(out); });
}

TranscodeService::~TranscodeService() {
  metrics_->remove_collector(metrics_collector_);
  shutdown();
}

void TranscodeService::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  queue_->close();   // refuse new work, wake blocked submitters and pumps
  workers_.reset();  // pumps drain the accepted backlog, then workers join
}

std::future<Response> TranscodeService::submit(Request req) {
  Job job;
  job.req = std::move(req);
  std::future<Response> future = job.promise.get_future();
  submit_job(std::move(job));
  return future;
}

void TranscodeService::submit(Request req, Callback done) {
  Job job;
  job.req = std::move(req);
  job.done = std::move(done);
  submit_job(std::move(job));
}

void TranscodeService::submit_job(Job job) {
  submitted_->inc();
  // Adopt the front end's trace, or open one here for in-process callers.
  // Pure observability: the sampling decision never feeds into admission
  // or batching.
  job.trace_id = job.req.trace_id;
  job.trace_parent = job.req.trace_parent;
  if (job.trace_id == 0) {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      job.trace_id = tracer.start_trace();
      if (job.trace_id != 0) {
        job.trace_parent = tracer.next_span_id();
        job.trace_owned = true;
      }
    }
  }
  job.cacheable = cacheable(job.req.kind) && result_cache_.enabled();
  // Only the config half of the key here: admission and batching never
  // read the input half, and hashing the payload on the submission
  // path would make rejection under overload O(payload). Workers derive
  // the input half lazily when a cache lookup actually happens.
  if (job.req.kind == RequestKind::kDeepnEncode) {
    // Resolve the tenant now — pinning the snapshot at submission is the
    // registry's consistency contract — and digest by resolved CONTENT, so
    // two tenants (or registry generations) with identical tables share
    // batches and cache entries.
    std::uint64_t tables_digest = deepn_tables_digest_;
    if (!job.req.tenant.empty()) {
      job.tenant = config_.registry->find(job.req.tenant);
      if (!job.tenant) {
        // No worker ever sees it: it counts as a processed deepn error
        // here, so sum(per_kind) == completed + errors still holds.
        submit_errors_->inc();
        errors_->inc();
        per_kind_[static_cast<int>(RequestKind::kDeepnEncode)]->inc();
        refuse(std::move(job), Status::kError,
               "unknown tenant: " + job.req.tenant);
        return;
      }
      tables_digest = job.tenant->base_digest;
      job.tenant_hash = fnv1a(job.req.tenant.data(), job.req.tenant.size());
    }
    job.key.config = deepn_config_digest(tables_digest, job.req.quality);
  } else {
    job.key.config = request_config_digest(job.req);
  }
  job.enqueue = Clock::now();

  const bool accepted = config_.admission == AdmissionPolicy::kReject
                            ? queue_->try_push(job)
                            : queue_->push(job);
  if (!accepted) {
    // try_push fails on full or closed; push only on closed. Closed wins
    // the tie-break so shutdown refusals are always typed kShutdown.
    if (queue_->closed()) {
      refused_shutdown_->inc();
      refuse(std::move(job), Status::kShutdown, "service is shut down");
    } else {
      rejected_->inc();
      refuse(std::move(job), Status::kRejected, "submission queue full");
    }
  }
}

void TranscodeService::fulfill(Job&& job, Response&& resp) {
  if (job.done) {
    // The callback contract says "must not throw"; enforcing it here keeps
    // a misbehaving callback from unwinding a pump (which would violate
    // the pool's no-throw task contract and take the process down).
    try {
      job.done(std::move(resp));
    } catch (...) {
    }
  } else {
    job.promise.set_value(std::move(resp));
  }
}

void TranscodeService::refuse(Job&& job, Status status, std::string why) {
  Response r;
  r.status = status;
  r.error = std::move(why);
  fulfill(std::move(job), std::move(r));
}

void TranscodeService::pump() {
  std::vector<Job> batch;
  Job first;
  while (queue_->pop(first)) {
    batch.clear();
    batch.push_back(std::move(first));
    if (config_.max_batch > 1) {
      const RequestKind kind = batch[0].req.kind;
      const std::uint64_t cfg = batch[0].key.config;
      queue_->pop_while(
          [kind, cfg](const Job& j) {
            return j.req.kind == kind && j.key.config == cfg;
          },
          static_cast<std::size_t>(config_.max_batch) - 1, batch);
    }
    process_batch(batch);
  }
}

TranscodeService::TenantInstruments& TranscodeService::tenant_instruments(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  obs::Registry& m = *metrics_;
  const obs::Labels l = {{"tenant", name}};
  TenantInstruments t;
  t.requests = &m.counter("serve_tenant_requests_total", l);
  t.completed = &m.counter("serve_tenant_completed_total", l);
  t.errors = &m.counter("serve_tenant_errors_total", l);
  t.cache_hits = &m.counter("serve_tenant_cache_hits_total", l);
  t.table_hits = &m.counter("serve_tenant_table_cache_hits_total", l);
  t.table_misses = &m.counter("serve_tenant_table_cache_misses_total", l);
  t.ctx = {&m.counter("serve_tenant_ctx_huffman_builds_total", l),
           &m.counter("serve_tenant_ctx_reciprocal_builds_total", l),
           &m.counter("serve_tenant_ctx_quality_table_builds_total", l),
           &m.counter("serve_tenant_ctx_decoder_builds_total", l)};
  t.service_time = &m.histogram("serve_tenant_service_time_us", l, kLatencyLoUs,
                                kLatencyHiUs, kTenantLatencyBins);
  return tenants_.emplace(name, t).first->second;
}

void TranscodeService::process_batch(std::vector<Job>& batch) {
  // Stats-ordering contract: by the time a future is fulfilled, its batch
  // and its own lifecycle counters/latencies are visible to stats(). Hence
  // batch-level counters go in at assembly, per-request counters right
  // before each fulfill. Context-warmth deltas are only knowable after the
  // batch ran; they settle when the batch finishes (final once shutdown()
  // returned).
  batches_->inc();
  if (batch.size() > 1) batched_requests_->inc(batch.size());
  std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (seen < batch.size() &&
         !max_batch_.compare_exchange_weak(seen, batch.size(),
                                           std::memory_order_relaxed)) {
  }

  // The pump thread's context persists across batches; counters are read
  // before/after so the stats report rebuilds attributable to this batch.
  const jpeg::pipeline::CodecContext::ReuseCounters before =
      jpeg::pipeline::thread_codec_context().reuse_counters();

  TenantInstruments* head_tenant = nullptr;
  for (Job& job : batch) {
    const Clock::time_point picked = Clock::now();
    // Install the job's trace for this thread: codec-internal spans attach
    // under it without any id plumbing through run(). The queue-wait span
    // started on the submitting thread, so it is recorded with explicit
    // endpoints rather than RAII.
    obs::TraceScope trace(job.trace_id, job.trace_parent);
    obs::record_span(job.trace_id, job.trace_parent, obs::Stage::kQueueWait,
                     to_trace_ns(job.enqueue), to_trace_ns(picked));
    Response resp;
    RunInfo info;
    {
      obs::Span batch_span(obs::Stage::kBatch,
                           static_cast<std::uint64_t>(batch.size()));
      bool hit = false;
      if (job.cacheable) {
        obs::Span probe(obs::Stage::kCacheProbe);
        job.key.input = request_input_digest(job.req);
        hit = result_cache_.get(job.key, &resp.bytes);
      }
      if (hit) {
        resp.cache_hit = true;
      } else {
        resp = run(job.req, job.tenant.get(), &info);
        if (job.cacheable && resp.status == Status::kOk)
          result_cache_.put(job.key, resp.bytes, resp.bytes.size(), job.tenant_hash);
      }
    }
    const Clock::time_point done = Clock::now();
    // In-process submissions have no front end to close the root span;
    // the service owns the trace and records the root here.
    if (job.trace_owned)
      obs::record_span_as(job.trace_id, job.trace_parent, 0, obs::Stage::kRequest,
                          to_trace_ns(job.enqueue), to_trace_ns(done),
                          static_cast<std::uint64_t>(job.req.kind));
    resp.batch_size = static_cast<int>(batch.size());
    resp.queue_us = us_between(job.enqueue, picked);
    resp.service_us = us_between(picked, done);
    const bool ok = resp.status == Status::kOk;
    queue_wait_->observe(resp.queue_us);
    service_time_->observe(resp.service_us);
    total_->observe(us_between(job.enqueue, done));
    per_kind_[static_cast<int>(job.req.kind)]->inc();
    (ok ? completed_ : errors_)->inc();
    if (job.tenant) {
      TenantInstruments& t = tenant_instruments(job.tenant->name);
      if (&job == &batch.front()) head_tenant = &t;
      t.requests->inc();
      (ok ? t.completed : t.errors)->inc();
      if (resp.cache_hit) t.cache_hits->inc();
      if (info.table_lookup) (info.table_hit ? t.table_hits : t.table_misses)->inc();
      t.service_time->observe(resp.service_us);
    }
    fulfill(std::move(job), std::move(resp));
  }

  const jpeg::pipeline::CodecContext::ReuseCounters after =
      jpeg::pipeline::thread_codec_context().reuse_counters();
  auto add_delta = [&before, &after](const CtxCounters& c) {
    c.huffman->inc(after.huffman_builds - before.huffman_builds);
    c.reciprocal->inc(after.reciprocal_builds - before.reciprocal_builds);
    c.quality_table->inc(after.quality_table_builds - before.quality_table_builds);
    c.decoder->inc(after.huffman_decoder_builds - before.huffman_decoder_builds);
  };
  add_delta(ctx_);
  // Context rebuilds are measurable only per batch; a batch is digest-pure,
  // so attributing its delta to the head request's tenant is exact whenever
  // the batch is single-tenant and the head's cache hits hide no rebuild —
  // close enough for a warmth signal, and documented as batch-granular.
  if (head_tenant) add_delta(head_tenant->ctx);
}

namespace {

/// Folds a façade status into a Response: any non-ok api status becomes a
/// typed kError with the façade's message (the serve taxonomy's catch-all
/// for handler failures — exactly what the pre-façade exception path
/// produced, message for message).
bool fold_status(const api::Status& status, Response& r) {
  if (status.ok()) return true;
  r = Response{};
  r.status = Status::kError;
  r.error = status.message();
  return false;
}

}  // namespace

Response TranscodeService::run(const Request& req, const TenantEntry* tenant,
                               RunInfo* info) {
  // The codec request kinds run through the public façade (dnj::api) —
  // the service is the façade's first in-tree consumer, so the boundary
  // contract (typed statuses in, bit-identical payloads out) is exercised
  // by every serving test. Session binds codec work to this worker
  // thread's codec context, the same warm arenas the direct calls used;
  // payloads are byte-identical to the pre-façade implementation. One
  // deliberate tightening rides along: the façade validates options, so a
  // request whose config carries quality outside [1, 100] (which raw
  // jpeg::encode silently clamps) now gets a typed kError instead of
  // clamped bytes. execute() shares this path, so the submit()==execute()
  // determinism contract is unaffected.
  static thread_local api::Session session;
  const api::Codec codec = session.codec();
  Response r;
  try {
    switch (req.kind) {
      case RequestKind::kEncode: {
        api::Result<std::vector<std::uint8_t>> res =
            codec.encode(req.image.view(), api::detail::from_config(req.config));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kDecode: {
        api::Result<api::DecodedImage> res = codec.decode(req.bytes);
        if (fold_status(res.status(), r)) {
          api::DecodedImage img = res.take();
          r.image = image::Image(img.width, img.height, img.channels,
                                 std::move(img.pixels));
        }
        break;
      }
      case RequestKind::kTranscode: {
        api::Result<std::vector<std::uint8_t>> res =
            codec.transcode(req.bytes, api::detail::from_config(req.config));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kDeepnEncode: {
        api::Result<std::vector<std::uint8_t>> res = codec.encode(
            req.image.view(),
            api::detail::from_config(
                deepn_config(req.quality, tenant, info)));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kInfer: {
        if (!config_.model)
          throw std::runtime_error("kInfer request but no model configured");
        const image::Image img =
            jpeg::decode(req.bytes, jpeg::pipeline::thread_codec_context());
        // Layer::forward caches activations for backward, so inference is
        // serialized; the output is a pure function of (weights, image),
        // which keeps the determinism contract intact.
        std::lock_guard<std::mutex> lock(model_mutex_);
        obs::Span span(obs::Stage::kInfer);
        r.probs = nn::predict_probs(*config_.model, img);
        break;
      }
    }
  } catch (const std::exception& e) {
    r = Response{};
    r.status = Status::kError;
    r.error = e.what();
  } catch (...) {
    // A non-std exception (a user-supplied model can throw anything) must
    // not unwind the pump — that would break the always-fulfilled future
    // guarantee and terminate the process via the pool's no-throw contract.
    r = Response{};
    r.status = Status::kError;
    r.error = "handler threw a non-std exception";
  }
  return r;
}

jpeg::EncoderConfig TranscodeService::deepn_config(int quality,
                                                   const TenantEntry* tenant,
                                                   RunInfo* info) {
  quality = std::clamp(quality, 1, 100);
  const jpeg::QuantTable& base_luma =
      tenant ? tenant->base.luma_table : config_.deepn_luma;
  const jpeg::QuantTable& base_chroma =
      tenant ? tenant->base.chroma_table : config_.deepn_chroma;
  const std::uint64_t tables_digest =
      tenant ? tenant->base_digest : deepn_tables_digest_;

  TablePair pair;
  // info == nullptr = the execute() reference path: deliberately cache-free.
  const bool cached = info != nullptr && table_cache_.enabled();
  const CacheKey key{tables_digest, static_cast<std::uint64_t>(quality)};
  bool hit = false;
  if (cached) {
    info->table_lookup = true;
    hit = table_cache_.get(key, &pair);
    info->table_hit = hit;
  }
  if (!hit) {
    pair.luma = base_luma.scaled(quality);
    pair.chroma = base_chroma.scaled(quality);
    if (cached) table_cache_.put(key, pair);
  }

  // A tenant's entry carries its full encoder configuration — subsampling,
  // Huffman optimization, restart interval, comment all honored; only the
  // tables are replaced by their quality-scaled versions. The tenantless
  // path keeps its historical shape (4:4:4, defaults elsewhere).
  jpeg::EncoderConfig cfg;
  if (tenant != nullptr) cfg = tenant->base;
  else cfg.subsampling = jpeg::Subsampling::k444;
  cfg.use_custom_tables = true;
  cfg.luma_table = pair.luma;
  cfg.chroma_table = pair.chroma;
  return cfg;
}

Response TranscodeService::execute(const Request& req) {
  // Reference path: same handlers, same thread-local context mechanism,
  // but no queue, no batching, and — deliberately — no caches (the table
  // cache included), so cache correctness is testable by comparing
  // submit() against execute(). Tenant names resolve against the same
  // registry, pinned for the duration of this call.
  const TenantEntry* tenant = nullptr;
  std::shared_ptr<const TenantEntry> pin;
  if (req.kind == RequestKind::kDeepnEncode && !req.tenant.empty()) {
    pin = config_.registry->find(req.tenant);
    if (!pin) {
      Response r;
      r.status = Status::kError;
      r.error = "unknown tenant: " + req.tenant;
      return r;
    }
    tenant = pin.get();
  }
  return run(req, tenant, /*info=*/nullptr);
}

ServiceStats TranscodeService::stats() const {
  ServiceStats s;
  s.submitted = submitted_->value();
  s.completed = completed_->value();
  s.errors = errors_->value();
  s.rejected = rejected_->value();
  s.refused_shutdown = refused_shutdown_->value();
  for (int k = 0; k < kNumRequestKinds; ++k) s.per_kind[k] = per_kind_[k]->value();
  s.cache_hits = result_cache_.hits();
  s.cache_misses = result_cache_.misses();
  s.cache_evictions = result_cache_.evictions();
  s.cache_quota_evictions = result_cache_.quota_evictions();
  s.cache_bytes = result_cache_.bytes();
  s.table_cache_hits = table_cache_.hits();
  s.table_cache_misses = table_cache_.misses();
  s.batches = batches_->value();
  s.batched_requests = batched_requests_->value();
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.queue_capacity = queue_->capacity();
  s.queue_high_water = queue_->high_water();
  s.ctx_huffman_builds = ctx_.huffman->value();
  s.ctx_reciprocal_builds = ctx_.reciprocal->value();
  s.ctx_quality_table_builds = ctx_.quality_table->value();
  s.ctx_decoder_builds = ctx_.decoder->value();
  s.queue_wait = summarize(*queue_wait_);
  s.service_time = summarize(*service_time_);
  s.total = summarize(*total_);

  std::lock_guard<std::mutex> lock(tenants_mutex_);
  s.tenants.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats ts;
    ts.name = name;
    ts.requests = t.requests->value();
    ts.completed = t.completed->value();
    ts.errors = t.errors->value();
    ts.cache_hits = t.cache_hits->value();
    ts.table_cache_hits = t.table_hits->value();
    ts.table_cache_misses = t.table_misses->value();
    ts.ctx_huffman_builds = t.ctx.huffman->value();
    ts.ctx_reciprocal_builds = t.ctx.reciprocal->value();
    ts.ctx_quality_table_builds = t.ctx.quality_table->value();
    ts.ctx_decoder_builds = t.ctx.decoder->value();
    ts.service_time = summarize(*t.service_time);
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

void TranscodeService::collect_metrics(std::vector<obs::Sample>& out) const {
  // Only the values the caches, the queue and max_batch_ own; every other
  // serve_* series is a registry instrument. Nothing here touches the
  // registry, so running under its mutex cannot deadlock.
  auto emit = [&out](const char* name, std::uint64_t v, obs::SampleKind kind) {
    out.push_back({name, {}, static_cast<double>(v), kind});
  };
  constexpr obs::SampleKind kCounter = obs::SampleKind::kCounter;
  constexpr obs::SampleKind kGauge = obs::SampleKind::kGauge;
  emit("serve_result_cache_hits_total", result_cache_.hits(), kCounter);
  emit("serve_result_cache_misses_total", result_cache_.misses(), kCounter);
  emit("serve_result_cache_evictions_total", result_cache_.evictions(), kCounter);
  emit("serve_result_cache_quota_evictions_total", result_cache_.quota_evictions(),
       kCounter);
  emit("serve_result_cache_bytes", result_cache_.bytes(), kGauge);
  emit("serve_table_cache_hits_total", table_cache_.hits(), kCounter);
  emit("serve_table_cache_misses_total", table_cache_.misses(), kCounter);
  emit("serve_max_batch", max_batch_.load(std::memory_order_relaxed), kGauge);
  emit("serve_queue_capacity", queue_->capacity(), kGauge);
  emit("serve_queue_high_water", queue_->high_water(), kGauge);
}

}  // namespace dnj::serve
