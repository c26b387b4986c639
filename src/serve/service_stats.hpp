// Latency/throughput accounting for the serving layer.
//
// ServiceStats is a read-only view: every field is read back from the
// service's obs::Registry instruments (workers bump Counters and observe
// HistogramHandles as they go) or from the structure that owns the value
// (the result LRU, the submission queue). The same instruments
// are what a scrape renders, so stats() and the exporters cannot
// disagree. Quantiles are the histograms' interpolated streaming
// quantiles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace dnj::serve {

// Latency histogram geometry: 10 us resolution up to 250 ms. Latencies
// beyond the range saturate into the top bin (stats::Histogram edge-bin
// rule), so tail quantiles of a pathologically slow run read as ">= 250 ms"
// rather than garbage.
inline constexpr double kLatencyLoUs = 0.0;
inline constexpr double kLatencyHiUs = 250000.0;
inline constexpr int kLatencyBins = 25000;

// Per-tenant histograms are 10x coarser (100 us resolution over the same
// range): the service keeps one per named tenant, so the service-wide
// geometry (~200 KB a histogram) would turn "thousands of tenants" into
// hundreds of megabytes of bins. 100 us still resolves serving-scale
// quantiles.
inline constexpr int kTenantLatencyBins = 2500;

/// Quantile summary of one latency distribution, in microseconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;  ///< exact running max, not histogram-quantized
};

/// Counters and latency quantiles for one named registry tenant (requests
/// carrying an empty tenant name count only in the service-wide totals).
/// Listed by stats() once a worker has processed one of the tenant's
/// requests, sorted by name.
struct TenantStats {
  std::string name;
  std::uint64_t requests = 0;   ///< processed = completed + errors
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;  ///< result-cache hits
  // This tenant's share of the service-wide context-rebuild counters
  // (exact: each request's delta goes to its own tenant).
  std::uint64_t ctx_huffman_builds = 0;
  std::uint64_t ctx_reciprocal_builds = 0;
  std::uint64_t ctx_quality_table_builds = 0;
  std::uint64_t ctx_decoder_builds = 0;
  LatencySummary service_time;  ///< coarse geometry (kTenantLatencyBins)
};

/// Point-in-time snapshot of a service's counters and latency quantiles.
/// Responses' payloads are deterministic; this snapshot is the one place
/// where scheduling (timing, cache state) is allowed to show.
struct ServiceStats {
  // Request lifecycle.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< kOk responses
  std::uint64_t errors = 0;     ///< kError responses
  std::uint64_t rejected = 0;   ///< kRejected (reject policy, queue full)
  std::uint64_t refused_shutdown = 0;  ///< kShutdown (submitted too late)
  std::uint64_t per_kind[kNumRequestKinds] = {};  ///< processed, by RequestKind

  // Result cache. cache_bytes is the recorded payload total;
  // cache_quota_evictions count entries a tenant pushed out of its OWN
  // allotment (the fairness mechanism, disjoint from cache_evictions).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_quota_evictions = 0;
  std::uint64_t cache_bytes = 0;
  /// Always 0: the service keeps no scaled-table cache. Kept for existing
  /// readers of this struct.
  std::uint64_t table_cache_hits = 0;

  /// Requests the workers processed (sum of per_kind minus the
  /// unknown-tenant refusals made at submission). Each request is served
  /// on its own, so this is also the number of pump iterations. Kept for
  /// existing readers of this struct.
  std::uint64_t batches = 0;

  // Queue pressure.
  std::uint64_t queue_capacity = 0;
  std::uint64_t queue_high_water = 0;  ///< never exceeds queue_capacity
  /// Always 0: every worker pops the same queue, so no pop is a steal.
  /// Kept for existing readers of this struct.
  std::uint64_t steals = 0;

  // Context warmth (jpeg::pipeline::CodecContext::ReuseCounters deltas,
  // summed over requests): rebuilds of cached per-context state. Few
  // rebuilds per request = consecutive requests on a worker share tables.
  std::uint64_t ctx_huffman_builds = 0;
  std::uint64_t ctx_reciprocal_builds = 0;
  std::uint64_t ctx_quality_table_builds = 0;
  std::uint64_t ctx_decoder_builds = 0;  ///< decode-side Huffman table + LUT builds

  // Latency quantiles (SLO accounting).
  LatencySummary queue_wait;    ///< submission -> worker pickup
  LatencySummary service_time;  ///< worker pickup -> completion
  LatencySummary total;         ///< submission -> completion

  // Per-tenant breakdown (named registry tenants only), sorted by name.
  std::vector<TenantStats> tenants;
};

}  // namespace dnj::serve
