// Multi-tenant serving bench: many tenants' DeepN encodes through one
// service under a realistic skewed tenant mix.
//
// Load: N registry tenants (distinct base quantization-table pairs), each
// requested at two qualities — 2N distinct encode configurations — drawn
// from a Zipf-skewed, LCG-seeded schedule (a few tenants dominate, a long
// tail trickles, exactly like production multi-tenancy). The scaled-table
// LRU is smaller than the number of live configurations, so the table
// hit rate and context rebuilds show how much work the mix re-derives.
//
// Scenarios (one row each in BENCH_multitenant.json):
//   * multi-worker          — kWorkers workers on the default service
//     configuration.
//   * single-thread         — one worker, the no-concurrency reference.
//   * multi-worker-obs-full — multi-worker with every request traced.
//
// The serving contract is a gate, not an observation: every payload from
// every scenario is checked against an expectation computed upfront with
// direct synchronous jpeg::encode calls under the registry's own entry
// (so multi-worker == single-thread == synchronous, byte for byte), and
// the bench exits non-zero on any mismatch.
//
// Usage: bench_multitenant [corpus_images] [requests_per_client]
//   corpus_images       — distinct 32x32 images cycled through (default 24)
//   requests_per_client — per client thread, per scenario (default 300;
//                         use something small like 40 for a CI smoke run)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "jpeg/encoder.hpp"
#include "obs/trace.hpp"
#include "serve/digest.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"

using namespace dnj;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTenants = 12;
constexpr int kQualities[2] = {40, 75};
constexpr int kClients = 8;
constexpr int kWorkers = 8;
/// Scaled-table LRU capacity: well under the 24 live configurations.
constexpr std::size_t kTableCache = 6;

/// One request form: a reusable request plus the digest of its expected
/// payload (computed via direct synchronous jpeg::encode under the
/// registry's normalized tenant entry).
struct Form {
  serve::Request request;
  std::uint64_t want_digest = 0;
};

/// Deterministic LCG (never std::rand: the schedule must be bit-stable).
std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

struct ScenarioResult {
  std::string name;
  int workers = 1;
  double seconds = 0.0;
  std::size_t ok = 0;
  bool identical = true;
  serve::ServiceStats stats;
};

ScenarioResult run_scenario(const std::string& name, const serve::ServiceConfig& cfg,
                            const std::vector<Form>& forms,
                            const std::vector<std::size_t>& schedule, int per_client) {
  serve::TranscodeService service(cfg);
  std::vector<std::size_t> ok(kClients, 0);
  std::vector<std::uint8_t> identical(kClients, 1);  // not vector<bool>: clients race

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t ci = static_cast<std::size_t>(c);
      // Open loop: fire the whole load first (blocking admission applies
      // backpressure at the queue), settle afterwards, so workers drain a
      // deep backlog rather than an idle queue.
      std::vector<std::pair<std::future<serve::Response>, std::size_t>> inflight;
      inflight.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::size_t form =
            schedule[(static_cast<std::size_t>(i) * kClients + ci) % schedule.size()];
        inflight.emplace_back(service.submit(forms[form].request), form);
      }
      for (auto& [fut, form] : inflight) {
        const serve::Response r = fut.get();
        if (r.status != serve::Status::kOk) {
          identical[ci] = 0;
          continue;
        }
        ++ok[ci];
        if (serve::fnv1a(r.bytes.data(), r.bytes.size()) != forms[form].want_digest)
          identical[ci] = 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = Clock::now();
  service.shutdown();

  ScenarioResult res;
  res.name = name;
  res.workers = cfg.workers;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (int c = 0; c < kClients; ++c) {
    res.ok += ok[static_cast<std::size_t>(c)];
    res.identical = res.identical && identical[static_cast<std::size_t>(c)] != 0;
  }
  res.stats = service.stats();
  return res;
}

double table_hit_rate(const serve::ServiceStats& st) {
  const std::uint64_t lookups = st.table_cache_hits + st.table_cache_misses;
  return lookups ? static_cast<double>(st.table_cache_hits) / static_cast<double>(lookups)
                 : 0.0;
}

std::uint64_t ctx_builds(const serve::ServiceStats& st) {
  return st.ctx_huffman_builds + st.ctx_reciprocal_builds + st.ctx_quality_table_builds;
}

std::string us_str(double us) { return bench::fmt(us, 1); }

}  // namespace

int main(int argc, char** argv) {
  const int corpus_images = argc > 1 ? std::atoi(argv[1]) : 24;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 300;
  if (corpus_images <= 0 || per_client <= 0) {
    std::fprintf(stderr, "bench_multitenant: bad arguments\n");
    return 1;
  }
#if !defined(_WIN32)
  // Give the worker pool real threads even on single-core CI boxes.
  // Never overrides a user's DNJ_THREADS.
  setenv("DNJ_THREADS", "8", 0);
#endif

  data::GeneratorConfig gen_cfg;
  gen_cfg.width = 32;
  gen_cfg.height = 32;
  gen_cfg.channels = 1;
  gen_cfg.num_classes = 8;
  gen_cfg.seed = 0x7E4A47;
  const data::Dataset ds =
      data::SyntheticDatasetGenerator(gen_cfg).generate((corpus_images + 7) / 8);

  // The tenant set: every tenant gets its own base pair (Annex K scaled to
  // a tenant-specific operating point), registered once in a shared
  // registry. Expectations come from the registry's own normalized entry,
  // so the gate covers the registration-normalization path too.
  auto registry = std::make_shared<serve::TableRegistry>();
  for (int t = 0; t < kTenants; ++t) {
    jpeg::EncoderConfig base;
    base.use_custom_tables = true;
    base.luma_table = jpeg::QuantTable::annex_k_luma().scaled(20 + t * 6);
    base.chroma_table = jpeg::QuantTable::annex_k_chroma().scaled(20 + t * 6);
    base.subsampling = jpeg::Subsampling::k444;
    registry->put("tenant-" + std::to_string(t), base);
  }

  // Request forms: tenant x quality x corpus image, with synchronous
  // expectations.
  std::vector<Form> forms;
  for (int t = 0; t < kTenants; ++t) {
    const std::shared_ptr<const serve::TenantEntry> entry =
        registry->find("tenant-" + std::to_string(t));
    for (const int quality : kQualities) {
      jpeg::EncoderConfig want_cfg = entry->base;
      want_cfg.luma_table = entry->base.luma_table.scaled(quality);
      want_cfg.chroma_table = entry->base.chroma_table.scaled(quality);
      for (const data::Sample& s : ds.samples) {
        Form f;
        f.request.kind = serve::RequestKind::kDeepnEncode;
        f.request.image = s.image;
        f.request.quality = quality;
        f.request.tenant = entry->name;
        const std::vector<std::uint8_t> want = jpeg::encode(s.image, want_cfg);
        f.want_digest = serve::fnv1a(want.data(), want.size());
        forms.push_back(std::move(f));
      }
    }
  }

  // Skewed schedule over (tenant, quality, image): tenant t drawn with
  // Zipf-like weight 1/sqrt(t+1) (popular tenants dominate, the tail still
  // carries real traffic), then quality and image uniformly. Shared by all
  // scenarios so they serve the exact same request sequence.
  std::vector<double> cdf(kTenants);
  double total_weight = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    total_weight += 1.0 / std::sqrt(static_cast<double>(t + 1));
    cdf[static_cast<std::size_t>(t)] = total_weight;
  }
  const std::size_t per_tenant = 2 * ds.size();  // forms per tenant
  std::uint64_t rng = 0xD1635757ULL;
  std::vector<std::size_t> schedule(static_cast<std::size_t>(kClients) *
                                    static_cast<std::size_t>(per_client));
  for (std::size_t& slot : schedule) {
    const double u = static_cast<double>(lcg(rng) % 1000000) / 1000000.0 * total_weight;
    std::size_t tenant = 0;
    while (tenant + 1 < static_cast<std::size_t>(kTenants) && cdf[tenant] <= u) ++tenant;
    slot = tenant * per_tenant + lcg(rng) % per_tenant;
  }

  serve::ServiceConfig base_cfg;
  base_cfg.workers = kWorkers;
  // The queue holds the whole open-loop load, so producers never block.
  base_cfg.queue_capacity =
      static_cast<std::size_t>(kClients) * static_cast<std::size_t>(per_client);
  base_cfg.max_batch = 8;
  base_cfg.cache_capacity = 0;  // measure encodes, not result-cache replay
  base_cfg.table_cache_capacity = kTableCache;
  base_cfg.registry = registry;

  std::vector<ScenarioResult> results;
  results.push_back(run_scenario("multi-worker", base_cfg, forms, schedule, per_client));
  {
    serve::ServiceConfig cfg = base_cfg;
    cfg.workers = 1;
    results.push_back(run_scenario("single-thread", cfg, forms, schedule, per_client));
  }
  {
    // Observability overhead on the multi-worker configuration with every
    // request traced — the tenant-skewed load is the worst case for
    // tracing because per-job spans ride every batch. The identity gate
    // applies to this row like any other: tracing must not move a byte.
    obs::Tracer::instance().set_sample_every(1);
    results.push_back(run_scenario("multi-worker-obs-full", base_cfg, forms, schedule,
                                   per_client));
    obs::Tracer::instance().set_sample_every(0);
  }

  bool all_identical = true;
  bench::JsonWriter json("BENCH_multitenant");
  json.field("bench", "multitenant");
  json.field("tenants", kTenants);
  json.field("configs", static_cast<std::size_t>(kTenants) * 2);
  json.field("corpus_images", ds.size());
  json.field("clients", kClients);
  json.field("requests_per_client", per_client);
  json.field("table_cache_capacity", kTableCache);
  json.begin_rows({"scenario", "workers", "ok", "seconds", "rps", "svc_p50_us",
                   "svc_p95_us", "svc_p99_us", "total_p99_us", "queue_high_water",
                   "batches", "max_batch_seen", "table_hit_rate", "ctx_builds",
                   "identical"});
  std::printf(
      "bench_multitenant: %d tenants x 2 qualities, %zu corpus images, "
      "%d clients x %d requests\n",
      kTenants, ds.size(), kClients, per_client);
  for (const ScenarioResult& r : results) {
    all_identical = all_identical && r.identical;
    const serve::ServiceStats& st = r.stats;
    const double rps = static_cast<double>(r.ok) / r.seconds;
    json.row({r.name, std::to_string(r.workers), std::to_string(r.ok),
              bench::fmt(r.seconds, 3), bench::fmt(rps, 1),
              us_str(st.service_time.p50_us), us_str(st.service_time.p95_us),
              us_str(st.service_time.p99_us), us_str(st.total.p99_us),
              std::to_string(st.queue_high_water), std::to_string(st.batches),
              std::to_string(st.max_batch),
              bench::fmt(table_hit_rate(st), 3), std::to_string(ctx_builds(st)),
              r.identical ? "yes" : "NO"});
    std::printf(
        "  %-21s %6.2fs  %8.0f req/s  table hit=%.3f  ctx builds=%llu  %s\n",
        r.name.c_str(), r.seconds, rps, table_hit_rate(st),
        static_cast<unsigned long long>(ctx_builds(st)),
        r.identical ? "identical" : "MISMATCH");
  }
  json.end_rows();

  json.field("all_identical", all_identical);
  std::printf("  wrote %s\n", json.path().c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_multitenant: scenario payloads differ from synchronous calls!\n");
    return 1;
  }
  return 0;
}
