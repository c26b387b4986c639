// TranscodeService — the asynchronous serving layer over the codec pipeline
// and the NN front end.
//
//   clients ──submit()──▶ bounded MPMC queue ──▶ worker pumps
//               │           (runtime::MpmcQueue,       │ one pump per worker, each
//               │ admission control:  one FIFO for     │ on its own thread-local
//               │   kBlock  — wait for space           │ CodecContext (warm arenas)
//               │   kReject — typed kRejected          ├─▶ result LRU (byte + per-tenant quota accounting)
//               ▼            response, immediately     └─▶ obs::Registry instruments ──view──▶ ServiceStats
//        future<Response>
//
// Scheduling: one bounded FIFO shared by every worker. A pump pops one
// request, probes the result cache, runs it and fulfills it — every
// request is served on its own, as DeepN-JPEG compresses each image on
// its own. The thread-local context stays warm across consecutive
// requests without any grouping. The result cache is shared by all
// workers; which worker runs a request never changes its bytes.
//
// Multi-tenancy: a versioned TableRegistry (shared or service-private)
// maps tenant names to base table pairs + encoder options. A kDeepnEncode
// request naming a tenant pins that tenant's immutable snapshot at
// submission — concurrent re-registration can never mix table generations
// within a request — and is digested by resolved *content*, so identical
// configurations share result-cache entries across tenant names. The
// shared result LRU enforces one per-tenant byte quota
// (ServiceConfig::tenant_quota_bytes) so one tenant cannot evict
// everyone else (see LruCache).
//
// Determinism contract (extends the codec/runtime contracts to serving):
// every response payload is bit-identical to the equivalent synchronous
// single-threaded call — execute() — regardless of worker count, cache
// hits, or arrival order. This holds because every handler is a pure
// function of the request plus the configuration snapshot it pinned:
// contexts only carry scratch state, the cache stores deterministic
// functions of its keys, and the model is locked during each forward.
// tests/test_serve.cpp pins the contract across worker counts {1, 2, 8}
// and cache warm/cold.
//
// Shutdown: shutdown() closes the queue (new submissions get a typed
// kShutdown response; blocked submitters wake with the same), lets the
// pumps drain every request already accepted, then joins the workers.
// Idempotent; the destructor calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "jpeg/quant.hpp"
#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/digest.hpp"
#include "serve/lru_cache.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"
#include "serve/service_stats.hpp"

namespace dnj::serve {

enum class AdmissionPolicy : int {
  kBlock = 0,  ///< submit() waits for queue space (backpressure by blocking)
  kReject,     ///< submit() returns a typed kRejected response when full
};

struct ServiceConfig {
  /// Fixed worker count (clamped to >= 1). Each worker owns one
  /// thread-local jpeg::pipeline::CodecContext for its whole lifetime.
  int workers = 2;

  /// Bounded submission-queue capacity (clamped to >= 1). The queue never
  /// holds more requests than this — admission control handles overflow.
  std::size_t queue_capacity = 256;

  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  /// Result-cache entries — encoded byte payloads keyed on
  /// (input digest, config digest). 0 disables the cache.
  std::size_t cache_capacity = 256;

  /// Result-cache byte ceiling across all entries (0 = entry count only).
  std::size_t cache_max_bytes = 0;

  /// Per-tenant result-cache byte quota (0 = none), the same cap for
  /// every named tenant. Over-quota tenants evict their own
  /// least-recently-used entries, never other tenants'. This is the only
  /// per-tenant quota the service enforces: TenantEntry::quota_bytes is
  /// recorded and reported, never read here, so the cache needs no
  /// registry lookup on the hot path.
  std::size_t tenant_quota_bytes = 0;

  /// The deployment's DeepN-JPEG table pair, the base that tenantless
  /// kDeepnEncode requests IJG-scale by their `quality`. Defaults to
  /// identity tables; real deployments install core::DeepNJpeg::design()
  /// output. Requests naming a registry tenant use that tenant's pair
  /// instead.
  jpeg::QuantTable deepn_luma;
  jpeg::QuantTable deepn_chroma;

  /// Tenant registry backing kDeepnEncode requests that name a tenant.
  /// Null = the service creates a private one (reachable via registry()).
  /// Share one registry across services to serve one coherent tenant set.
  std::shared_ptr<TableRegistry> registry;

  /// Model for kInfer requests (not owned; must outlive the service).
  /// Layer::forward is stateful, so the service serializes inference
  /// through an internal mutex. Null = kInfer requests fail with kError.
  nn::Layer* model = nullptr;
};

class TranscodeService {
 public:
  explicit TranscodeService(ServiceConfig config);
  ~TranscodeService();  ///< calls shutdown()

  TranscodeService(const TranscodeService&) = delete;
  TranscodeService& operator=(const TranscodeService&) = delete;

  /// Submits a request. The returned future is always eventually fulfilled:
  /// with the result, a typed kRejected/kShutdown refusal, or a kError
  /// response when the handler threw (or the request named an unknown
  /// tenant). Never throws on queue pressure.
  std::future<Response> submit(Request req);

  /// Completion callback alternative to the future form — what an event
  /// loop wants (src/net's server): no thread ever blocks on a get().
  /// Exactly-once semantics match the future form: `done` is always
  /// invoked — with the result, a typed refusal, or kError. It runs on
  /// whichever thread completes the request: a worker pump for accepted
  /// work, the *submitting* thread for immediate refusals (rejection,
  /// shutdown) — so it must be safe to call from both and must not block
  /// or throw (a throw is swallowed to protect the pump; the response is
  /// then lost).
  using Callback = std::function<void(Response)>;
  void submit(Request req, Callback done);

  /// The synchronous reference path: runs `req` immediately on the calling
  /// thread — no queue, no result cache (tenant names still resolve
  /// against the registry, pinned at this call). The determinism contract
  /// says submit()'s payloads equal execute()'s, bit for bit.
  Response execute(const Request& req);

  /// Graceful shutdown: refuse new work, drain accepted work, join
  /// workers. Idempotent and safe to race with submit().
  void shutdown();

  /// Point-in-time view over the metrics registry's instruments (plus the
  /// result cache's and queue's own counters). Callable at any time,
  /// including after shutdown. Ordering contract: once a request's future
  /// has been fulfilled, that request is reflected in every counter and
  /// latency histogram, its context-rebuild deltas included.
  ServiceStats stats() const;

  const ServiceConfig& config() const { return config_; }

  /// The registry kDeepnEncode tenant names resolve against — the one from
  /// ServiceConfig, or the service-private one when none was given.
  const std::shared_ptr<TableRegistry>& registry() const { return config_.registry; }

  /// The metrics registry this service owns and counts into. A net::Server
  /// or jobs::JobManager fronting the service publishes into it too, so
  /// one scrape answers for the whole stack.
  const std::shared_ptr<obs::Registry>& metrics_registry() const {
    return metrics_;
  }

 private:
  struct Job;
  /// One counter per jpeg::pipeline::CodecContext::ReuseCounters field.
  struct CtxCounters {
    obs::Counter* huffman = nullptr;
    obs::Counter* reciprocal = nullptr;
    obs::Counter* quality_table = nullptr;
    obs::Counter* decoder = nullptr;
  };
  /// One named tenant's instruments (label `tenant`), registered the
  /// first time a worker processes one of the tenant's requests.
  struct TenantInstruments {
    obs::Counter* requests = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* cache_hits = nullptr;
    CtxCounters ctx;
    obs::HistogramHandle* service_time = nullptr;
  };
  void pump();
  void process(Job& job);
  TenantInstruments& tenant_instruments(const std::string& name);
  Response run(const Request& req, const TenantEntry* tenant);
  jpeg::EncoderConfig deepn_config(int quality, const TenantEntry* tenant) const;
  void collect_metrics(std::vector<obs::Sample>& out) const;
  void submit_job(Job job);
  static void fulfill(Job&& job, Response&& resp);
  void refuse(Job&& job, Status status, std::string why);

  ServiceConfig config_;
  std::shared_ptr<obs::Registry> metrics_;
  std::uint64_t deepn_tables_digest_ = 0;
  std::unique_ptr<runtime::MpmcQueue<Job>> queue_;
  std::unique_ptr<runtime::ThreadPool> workers_;  ///< null once shut down
  std::mutex shutdown_mutex_;

  LruCache<CacheKey, std::vector<std::uint8_t>, CacheKeyHash> result_cache_;

  std::mutex model_mutex_;

  // The serve_* instruments: the only store of these counts (stats() and
  // every scrape read them). Stable addresses for the registry's lifetime,
  // cached here so the hot path is relaxed fetch_adds and one histogram
  // lock each, with no registry lookups.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* refused_shutdown_ = nullptr;
  obs::Counter* submit_errors_ = nullptr;  ///< unknown-tenant refusals
  obs::Counter* completed_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* per_kind_[kNumRequestKinds] = {};
  CtxCounters ctx_;
  obs::HistogramHandle* queue_wait_ = nullptr;
  obs::HistogramHandle* service_time_ = nullptr;
  obs::HistogramHandle* total_ = nullptr;
  /// Sorted by name, so stats() lists tenants in order for free.
  mutable std::mutex tenants_mutex_;
  std::map<std::string, TenantInstruments> tenants_;
  std::uint64_t metrics_collector_ = 0;  ///< removed before members die
};

}  // namespace dnj::serve
