// Serving-layer contract tests.
//
// The load-bearing one is ByteIdenticalToSynchronousCalls: every response
// payload must equal the equivalent synchronous single-threaded call, bit
// for bit, across worker counts {1, 2, 8} and cache off/warm — the
// serving extension of the repo-wide determinism
// contract. The expected values are computed with direct jpeg::/nn:: calls
// (not TranscodeService::execute) so a service-side wiring bug cannot
// cancel out of the comparison.
//
// ConcurrentClientsGetSynchronousPayloads extends it to several client
// threads submitting at once: mixed forms across the worker/cache grid,
// a multi-tenant registry with 24 live configs, and an open burst under
// the reject policy.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "jpeg/codec.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace dnj::serve {
namespace {

// The determinism suite runs with tracing forced on: observability must
// never influence payload bytes, so every request here is traced end to
// end while the byte-identity assertions do their work.
const bool force_tracing = [] {
  obs::Tracer::instance().set_sample_every(1);
  return true;
}();

data::Dataset gray_corpus(int per_class = 2) {
  data::GeneratorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.channels = 1;
  cfg.num_classes = 4;
  cfg.seed = 0x5E4E;
  return data::SyntheticDatasetGenerator(cfg).generate(per_class);
}

image::Image rgb_image(int w = 40, int h = 24) {
  image::Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      img.at(x, y, 0) = static_cast<std::uint8_t>((x * 7 + y * 3) & 0xFF);
      img.at(x, y, 1) = static_cast<std::uint8_t>((x * 2 + y * 11) & 0xFF);
      img.at(x, y, 2) = static_cast<std::uint8_t>((x * 13 + y * 5) & 0xFF);
    }
  return img;
}

/// A large image whose encode takes long enough that requests submitted
/// while it is being processed reliably pile up behind it.
image::Image big_image(int side = 1536) {
  image::Image img(side, side, 1);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x)
      img.at(x, y) = static_cast<std::uint8_t>((x * x + y * 31) & 0xFF);
  return img;
}

jpeg::EncoderConfig config_a() {
  jpeg::EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

jpeg::EncoderConfig config_b() {
  jpeg::EncoderConfig cfg;
  cfg.quality = 40;
  cfg.subsampling = jpeg::Subsampling::k420;
  cfg.optimize_huffman = true;
  return cfg;
}

Request encode_request(const image::Image& img, const jpeg::EncoderConfig& cfg) {
  Request r;
  r.kind = RequestKind::kEncode;
  r.image = img;
  r.config = cfg;
  return r;
}

/// The mixed workload used by the identity suite: every request paired with
/// its independently computed synchronous expectation.
struct Expected {
  Request request;
  Response want;  ///< status always kOk; only payload fields meaningful
};

std::vector<Expected> mixed_workload(nn::Layer* model, const jpeg::QuantTable& deepn_luma,
                                     const jpeg::QuantTable& deepn_chroma) {
  const data::Dataset ds = gray_corpus();
  std::vector<image::Image> images;
  for (const data::Sample& s : ds.samples) images.push_back(s.image);
  images.push_back(rgb_image());

  std::vector<Expected> out;
  const jpeg::EncoderConfig cfgs[2] = {config_a(), config_b()};
  for (std::size_t i = 0; i < images.size(); ++i) {
    const image::Image& img = images[i];
    const jpeg::EncoderConfig& cfg = cfgs[i % 2];
    const std::vector<std::uint8_t> stored = jpeg::encode(img, config_a());

    Expected enc;
    enc.request = encode_request(img, cfg);
    enc.want.bytes = jpeg::encode(img, cfg);
    out.push_back(std::move(enc));

    Expected dec;
    dec.request.kind = RequestKind::kDecode;
    dec.request.bytes = stored;
    dec.want.image = jpeg::decode(stored);
    out.push_back(std::move(dec));

    Expected xcode;
    xcode.request.kind = RequestKind::kTranscode;
    xcode.request.bytes = stored;
    xcode.request.config = cfgs[(i + 1) % 2];
    xcode.want.bytes = jpeg::encode(jpeg::decode(stored), cfgs[(i + 1) % 2]);
    out.push_back(std::move(xcode));

    Expected deepn;
    deepn.request.kind = RequestKind::kDeepnEncode;
    deepn.request.image = img;
    deepn.request.quality = static_cast<int>(30 + 15 * (i % 3));
    {
      jpeg::EncoderConfig dcfg;
      dcfg.use_custom_tables = true;
      dcfg.luma_table = deepn_luma.scaled(deepn.request.quality);
      dcfg.chroma_table = deepn_chroma.scaled(deepn.request.quality);
      dcfg.subsampling = jpeg::Subsampling::k444;
      deepn.want.bytes = jpeg::encode(img, dcfg);
    }
    out.push_back(std::move(deepn));

    if (model && img.channels() == 1) {
      Expected infer;
      infer.request.kind = RequestKind::kInfer;
      infer.request.bytes = stored;
      infer.want.probs = nn::predict_probs(*model, jpeg::decode(stored));
      out.push_back(std::move(infer));
    }
  }
  return out;
}

void expect_payload_equal(const Response& got, const Response& want, std::size_t idx) {
  ASSERT_EQ(got.status, Status::kOk) << "request " << idx << ": " << got.error;
  EXPECT_EQ(got.bytes, want.bytes) << "request " << idx;
  EXPECT_TRUE(got.image == want.image) << "request " << idx;
  EXPECT_EQ(got.probs, want.probs) << "request " << idx;
}

TEST(TranscodeService, ByteIdenticalToSynchronousCalls) {
  const jpeg::QuantTable deepn_luma = jpeg::QuantTable::annex_k_luma();
  const jpeg::QuantTable deepn_chroma = jpeg::QuantTable::uniform(24);
  nn::LayerPtr model = nn::make_model(nn::ModelKind::kMiniAlexNet, 1, 32, 4, 0xA11CE);
  const std::vector<Expected> workload =
      mixed_workload(model.get(), deepn_luma, deepn_chroma);

  for (int workers : {1, 2, 8}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{128}}) {
      ServiceConfig cfg;
      cfg.workers = workers;
      cfg.cache_capacity = cache;
      cfg.queue_capacity = 64;
      cfg.deepn_luma = deepn_luma;
      cfg.deepn_chroma = deepn_chroma;
      cfg.model = model.get();
      TranscodeService service(cfg);

      // Two passes over the workload: the second hits a warm cache when
      // caching is on, and must still match the uncached expectation.
      std::vector<std::future<Response>> futures;
      for (int pass = 0; pass < 2; ++pass)
        for (const Expected& e : workload) futures.push_back(service.submit(e.request));
      for (std::size_t f = 0; f < futures.size(); ++f) {
        const Response got = futures[f].get();
        expect_payload_equal(got, workload[f % workload.size()].want, f);
      }

      const ServiceStats st = service.stats();
      EXPECT_EQ(st.submitted, futures.size());
      EXPECT_EQ(st.completed, futures.size());
      EXPECT_EQ(st.errors, 0u);
      EXPECT_LE(st.queue_high_water, st.queue_capacity);
      if (cache > 0) {
        EXPECT_GT(st.cache_hits, 0u);
      }
    }
  }
}

TEST(TranscodeService, CacheHitIsFlaggedAndIdentical) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_capacity = 16;
  TranscodeService service(cfg);

  const Request req = encode_request(gray_corpus(1).samples[0].image, config_a());
  const Response first = service.submit(req).get();
  const Response second = service.submit(req).get();
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

TEST(TranscodeService, RejectPolicyReturnsTypedErrorAndBoundsQueue) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.admission = AdmissionPolicy::kReject;
  TranscodeService service(cfg);

  // Occupy the worker with a multi-millisecond encode, then burst-submit
  // more tiny requests than the queue can hold.
  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(encode_request(big_image(), config_a())));

  const image::Image tiny = gray_corpus(1).samples[0].image;
  const int burst = 60;
  for (int i = 0; i < burst; ++i)
    futures.push_back(service.submit(encode_request(tiny, config_a())));

  std::size_t ok = 0, rejected = 0;
  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    if (r.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, Status::kRejected);
      EXPECT_FALSE(r.error.empty());
      EXPECT_TRUE(r.bytes.empty());
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, static_cast<std::size_t>(burst) + 1);
  EXPECT_GE(rejected, 1u);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.completed, ok);
  EXPECT_LE(st.queue_high_water, cfg.queue_capacity);
}

TEST(TranscodeService, BlockPolicyServesEverythingThroughTinyQueue) {
  // Three workers do not divide a capacity of 2: the bound must still be
  // exactly the configured one, not rounded up per worker.
  for (int workers : {2, 3}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 2;
    cfg.admission = AdmissionPolicy::kBlock;
    TranscodeService service(cfg);

    const image::Image img = gray_corpus(1).samples[0].image;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 100; ++i)
      futures.push_back(service.submit(encode_request(img, config_a())));
    for (std::future<Response>& f : futures) EXPECT_EQ(f.get().status, Status::kOk);

    const ServiceStats st = service.stats();
    EXPECT_EQ(st.completed, 100u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(st.queue_capacity, 2u) << workers << " workers";
    EXPECT_LE(st.queue_high_water, 2u) << workers << " workers";
  }
}

TEST(TranscodeService, GracefulShutdownDrainsAcceptedWork) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  TranscodeService service(cfg);

  std::vector<std::future<Response>> futures;
  futures.push_back(service.submit(encode_request(big_image(), config_a())));
  const image::Image tiny = gray_corpus(1).samples[0].image;
  for (int i = 0; i < 23; ++i)
    futures.push_back(service.submit(encode_request(tiny, config_b())));

  service.shutdown();  // must drain all 24 accepted requests first

  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_FALSE(r.bytes.empty());
  }

  // Post-shutdown submissions get the typed refusal, immediately.
  const Response late = service.submit(encode_request(tiny, config_a())).get();
  EXPECT_EQ(late.status, Status::kShutdown);
  EXPECT_FALSE(late.error.empty());
  EXPECT_EQ(service.stats().refused_shutdown, 1u);
  EXPECT_EQ(service.stats().completed, futures.size());
}

TEST(TranscodeService, HandlerExceptionsBecomeTypedErrorResponses) {
  ServiceConfig cfg;
  cfg.workers = 2;
  TranscodeService service(cfg);

  Request malformed;
  malformed.kind = RequestKind::kDecode;
  malformed.bytes = {0x00, 0x01, 0x02, 0x03};
  const Response bad = service.submit(malformed).get();
  EXPECT_EQ(bad.status, Status::kError);
  EXPECT_FALSE(bad.error.empty());

  Request infer;  // no model configured
  infer.kind = RequestKind::kInfer;
  infer.bytes = jpeg::encode(gray_corpus(1).samples[0].image, config_a());
  const Response no_model = service.submit(infer).get();
  EXPECT_EQ(no_model.status, Status::kError);
  EXPECT_FALSE(no_model.error.empty());

  // The service survives handler failures.
  const Response ok =
      service.submit(encode_request(gray_corpus(1).samples[0].image, config_a())).get();
  EXPECT_EQ(ok.status, Status::kOk);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.errors, 2u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(TranscodeService, WarmContextRebuildAccounting) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_capacity = 0;  // every request really encodes
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(service.submit(encode_request(img, config_a())));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  // A same-config stream on one worker derives each cached table set at
  // most once: the thread-local context stays warm from one request to
  // the next, with no grouping of requests.
  const ServiceStats st = service.stats();
  EXPECT_LE(st.ctx_quality_table_builds, 1u);
  EXPECT_LE(st.ctx_huffman_builds, 1u);
  EXPECT_LE(st.ctx_reciprocal_builds, 2u);
}

TEST(TranscodeService, DeepnEncodeServesScaledTables) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.deepn_luma = jpeg::QuantTable::annex_k_luma();
  cfg.deepn_chroma = jpeg::QuantTable::annex_k_chroma();
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  Request req;
  req.kind = RequestKind::kDeepnEncode;
  req.image = img;
  req.quality = 35;

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.submit(req));
  jpeg::EncoderConfig expected_cfg;
  expected_cfg.use_custom_tables = true;
  expected_cfg.luma_table = cfg.deepn_luma.scaled(35);
  expected_cfg.chroma_table = cfg.deepn_chroma.scaled(35);
  expected_cfg.subsampling = jpeg::Subsampling::k444;
  const std::vector<std::uint8_t> expected = jpeg::encode(img, expected_cfg);
  for (std::future<Response>& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.bytes, expected);
  }
}

TEST(TranscodeService, StatsQuantilesAreCoherent) {
  ServiceConfig cfg;
  cfg.workers = 4;
  TranscodeService service(cfg);

  const data::Dataset ds = gray_corpus(4);
  std::vector<std::future<Response>> futures;
  for (const data::Sample& s : ds.samples)
    futures.push_back(service.submit(encode_request(s.image, config_a())));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.total.count, futures.size());
  EXPECT_EQ(st.queue_wait.count, futures.size());
  EXPECT_EQ(st.service_time.count, futures.size());
  EXPECT_LE(st.queue_wait.p50_us, st.queue_wait.p95_us);
  EXPECT_LE(st.queue_wait.p95_us, st.queue_wait.p99_us);
  EXPECT_LE(st.service_time.p50_us, st.service_time.p95_us);
  EXPECT_LE(st.service_time.p95_us, st.service_time.p99_us);
  EXPECT_GT(st.service_time.p50_us, 0.0);
  EXPECT_EQ(st.batches, futures.size());  // one pump iteration per request
  std::uint64_t kind_sum = 0;
  for (std::uint64_t c : st.per_kind) kind_sum += c;
  EXPECT_EQ(kind_sum, st.completed + st.errors);
}

TEST(TranscodeService, TranscodeBytesOverloadsAgree) {
  // The single-stream primitive the service's transcode handler runs on:
  // both overloads must equal the manual decode + encode composition.
  const std::vector<std::uint8_t> stored =
      jpeg::encode(gray_corpus(1).samples[0].image, config_a());
  const std::vector<std::uint8_t> manual =
      jpeg::encode(jpeg::decode(stored), config_b());
  EXPECT_EQ(core::transcode_bytes(stored, config_b()), manual);
  EXPECT_EQ(core::transcode_bytes(stored, config_b(),
                                  jpeg::pipeline::thread_codec_context()),
            manual);
}

TEST(TranscodeService, ExecuteMatchesSubmit) {
  ServiceConfig cfg;
  cfg.workers = 2;
  TranscodeService service(cfg);
  const Request req = encode_request(rgb_image(), config_b());
  const Response sync = service.execute(req);
  const Response async = service.submit(req).get();
  ASSERT_EQ(sync.status, Status::kOk);
  ASSERT_EQ(async.status, Status::kOk);
  EXPECT_EQ(sync.bytes, async.bytes);
}

jpeg::EncoderConfig tenant_base(int step) {
  jpeg::EncoderConfig cfg;
  cfg.use_custom_tables = true;
  cfg.luma_table = jpeg::QuantTable::uniform(static_cast<std::uint16_t>(step));
  cfg.chroma_table = jpeg::QuantTable::uniform(static_cast<std::uint16_t>(step + 4));
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

Request tenant_request(const image::Image& img, std::string tenant, int quality) {
  Request req;
  req.kind = RequestKind::kDeepnEncode;
  req.image = img;
  req.quality = quality;
  req.tenant = std::move(tenant);
  return req;
}

std::vector<std::uint8_t> tenant_expected(const image::Image& img,
                                          const jpeg::EncoderConfig& base, int quality) {
  jpeg::EncoderConfig cfg = base;
  cfg.luma_table = base.luma_table.scaled(quality);
  cfg.chroma_table = base.chroma_table.scaled(quality);
  return jpeg::encode(img, cfg);
}

TEST(TranscodeService, TenantRequestsEncodeUnderRegisteredTables) {
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  registry->put("beta", tenant_base(36));

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_capacity = 32;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  const Response a = service.submit(tenant_request(img, "alpha", 40)).get();
  const Response b = service.submit(tenant_request(img, "beta", 40)).get();
  const Response base50 = service.submit(tenant_request(img, "alpha", 50)).get();
  ASSERT_EQ(a.status, Status::kOk) << a.error;
  ASSERT_EQ(b.status, Status::kOk) << b.error;
  ASSERT_EQ(base50.status, Status::kOk) << base50.error;
  EXPECT_EQ(a.bytes, tenant_expected(img, tenant_base(20), 40));
  EXPECT_EQ(b.bytes, tenant_expected(img, tenant_base(36), 40));
  // Quality 50 = the registered tables verbatim.
  EXPECT_EQ(base50.bytes, jpeg::encode(img, tenant_base(20)));
  EXPECT_NE(a.bytes, b.bytes);

  // execute() resolves the same registry — the determinism reference
  // covers tenants too.
  EXPECT_EQ(service.execute(tenant_request(img, "alpha", 40)).bytes, a.bytes);
}

TEST(TranscodeService, UnknownTenantIsATypedSubmissionError) {
  ServiceConfig cfg;
  cfg.workers = 1;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  const Response r = service.submit(tenant_request(img, "nobody", 50)).get();
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("unknown tenant"), std::string::npos) << r.error;
  EXPECT_EQ(service.execute(tenant_request(img, "nobody", 50)).status, Status::kError);

  // The refusal keeps the stats invariants: counted as an error, attributed
  // to its kind.
  ASSERT_EQ(service.submit(encode_request(img, config_a())).get().status, Status::kOk);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.completed, 1u);
  std::uint64_t kind_sum = 0;
  for (std::uint64_t c : st.per_kind) kind_sum += c;
  EXPECT_EQ(kind_sum, st.completed + st.errors);
}

TEST(TranscodeService, TenantSnapshotIsPinnedAtSubmission) {
  auto registry = std::make_shared<TableRegistry>();
  const std::uint64_t v1 = registry->put("pinned", tenant_base(24));

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_capacity = 0;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::future<Response> pinned = service.submit(tenant_request(img, "pinned", 60));
  // Re-register AFTER submission: the in-flight request must keep v1's
  // tables whatever the scheduling; only later submissions see v2.
  const std::uint64_t v2 = registry->put("pinned", tenant_base(48));
  EXPECT_GT(v2, v1);
  EXPECT_EQ(pinned.get().bytes, tenant_expected(img, tenant_base(24), 60));
  EXPECT_EQ(service.submit(tenant_request(img, "pinned", 60)).get().bytes,
            tenant_expected(img, tenant_base(48), 60));

  // remove() keeps pinned snapshots working the same way.
  std::future<Response> last = service.submit(tenant_request(img, "pinned", 70));
  ASSERT_TRUE(registry->remove("pinned"));
  EXPECT_FALSE(registry->remove("pinned"));
  EXPECT_EQ(last.get().status, Status::kOk);
  EXPECT_EQ(service.submit(tenant_request(img, "pinned", 70)).get().status,
            Status::kError);
}

TEST(TranscodeService, PerTenantStatsAreAttributed) {
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  registry->put("beta", tenant_base(36));

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache_capacity = 32;
  cfg.registry = registry;
  TranscodeService service(cfg);

  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(service.submit(tenant_request(img, "alpha", 40)));
  for (int i = 0; i < 3; ++i)
    futures.push_back(service.submit(tenant_request(img, "beta", 40)));
  // A tenantless deepn encode must NOT appear in the per-tenant table.
  Request plain;
  plain.kind = RequestKind::kDeepnEncode;
  plain.image = img;
  plain.quality = 40;
  futures.push_back(service.submit(plain));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  ASSERT_EQ(st.tenants.size(), 2u);
  EXPECT_EQ(st.tenants[0].name, "alpha");  // sorted by name
  EXPECT_EQ(st.tenants[1].name, "beta");
  EXPECT_EQ(st.tenants[0].requests, 6u);
  EXPECT_EQ(st.tenants[1].requests, 3u);
  EXPECT_EQ(st.tenants[0].completed, 6u);
  EXPECT_EQ(st.tenants[1].completed, 3u);
  EXPECT_EQ(st.tenants[0].errors, 0u);
  // 6 identical cacheable requests on 2 workers: at most 2 miss the result
  // cache (one in flight per worker), so at least 4 hit it.
  EXPECT_GE(st.tenants[0].cache_hits, 4u);
  EXPECT_EQ(st.tenants[0].service_time.count, 6u);
  EXPECT_EQ(st.tenants[1].service_time.count, 3u);
  EXPECT_GT(st.cache_bytes, 0u);
}

TEST(TranscodeService, TenantContextRebuildsAddUp) {
  auto registry = std::make_shared<TableRegistry>();
  registry->put("alpha", tenant_base(20));
  registry->put("beta", tenant_base(36));

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_capacity = 0;  // every request really encodes
  cfg.registry = registry;
  TranscodeService service(cfg);

  // Interleaved tenants on one worker: every switch rebuilds the context's
  // tables, and each rebuild belongs to the request that caused it.
  const image::Image img = gray_corpus(1).samples[0].image;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(service.submit(tenant_request(img, i % 2 ? "beta" : "alpha", 40)));
  for (std::future<Response>& f : futures) ASSERT_EQ(f.get().status, Status::kOk);

  const ServiceStats st = service.stats();
  ASSERT_EQ(st.tenants.size(), 2u);
  const TenantStats& a = st.tenants[0];
  const TenantStats& b = st.tenants[1];
  EXPECT_EQ(a.ctx_huffman_builds + b.ctx_huffman_builds, st.ctx_huffman_builds);
  EXPECT_EQ(a.ctx_reciprocal_builds + b.ctx_reciprocal_builds, st.ctx_reciprocal_builds);
  EXPECT_EQ(a.ctx_quality_table_builds + b.ctx_quality_table_builds,
            st.ctx_quality_table_builds);
  EXPECT_EQ(a.ctx_decoder_builds + b.ctx_decoder_builds, st.ctx_decoder_builds);
  EXPECT_GE(a.ctx_reciprocal_builds, 1u);
  EXPECT_GE(b.ctx_reciprocal_builds, 1u);
}

/// Outcome counts of one concurrent-client run.
struct ClientTally {
  std::size_t ok = 0;          ///< kOk, payload equal to the expectation
  std::size_t mismatched = 0;  ///< kOk, payload differs
  std::size_t rejected = 0;    ///< typed kRejected with an error message
  std::size_t other = 0;       ///< anything else
};

/// `clients` threads share one service; client c submits forms c, c +
/// clients, ... of `workload` (`per_client` of them, wrapping), firing all
/// before collecting any, so submissions from every thread race through
/// admission and the result cache at once.
ClientTally run_clients(TranscodeService& service, const std::vector<Expected>& workload,
                        int clients, int per_client) {
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[static_cast<std::size_t>(c)];
      std::vector<std::pair<std::future<Response>, std::size_t>> inflight;
      for (int i = 0; i < per_client; ++i) {
        const std::size_t form = static_cast<std::size_t>(i * clients + c) % workload.size();
        inflight.emplace_back(service.submit(workload[form].request), form);
      }
      for (auto& [fut, form] : inflight) {
        const Response r = fut.get();
        const Response& want = workload[form].want;
        if (r.status == Status::kRejected && !r.error.empty() && r.bytes.empty())
          ++t.rejected;
        else if (r.status != Status::kOk)
          ++t.other;
        else if (r.bytes == want.bytes && r.image == want.image && r.probs == want.probs)
          ++t.ok;
        else
          ++t.mismatched;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ClientTally sum;
  for (const ClientTally& t : tallies) {
    sum.ok += t.ok;
    sum.mismatched += t.mismatched;
    sum.rejected += t.rejected;
    sum.other += t.other;
  }
  return sum;
}

TEST(TranscodeService, ConcurrentClientsGetSynchronousPayloads) {
  const jpeg::QuantTable deepn_luma = jpeg::QuantTable::annex_k_luma();
  const jpeg::QuantTable deepn_chroma = jpeg::QuantTable::annex_k_chroma();
  const std::vector<Expected> mixed = mixed_workload(nullptr, deepn_luma, deepn_chroma);
  const int clients = 4;
  const int per_client = 2 * static_cast<int>(mixed.size());

  // (a) Mixed encode / decode / transcode / deepn forms from concurrent
  // clients, blocking admission: everything is served, byte-identical.
  for (int workers : {1, 8}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{512}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " cache=" + std::to_string(cache));
      ServiceConfig cfg;
      cfg.workers = workers;
      cfg.cache_capacity = cache;
      cfg.queue_capacity = 64;
      cfg.deepn_luma = deepn_luma;
      cfg.deepn_chroma = deepn_chroma;
      TranscodeService service(cfg);
      const ClientTally t = run_clients(service, mixed, clients, per_client);
      EXPECT_EQ(t.ok, static_cast<std::size_t>(clients * per_client));
      EXPECT_EQ(t.mismatched, 0u);
      EXPECT_EQ(t.rejected + t.other, 0u);
    }
  }

  // (b) 12 tenants x 2 qualities = 24 live configs interleaved across 8
  // workers: every request scales its tenant's tables under contention,
  // and every payload still equals jpeg::encode under the registry
  // entry's tables.
  {
    auto registry = std::make_shared<TableRegistry>();
    const data::Dataset ds = gray_corpus(1);
    std::vector<Expected> tenant_forms;
    for (int t = 0; t < 12; ++t) {
      const std::string name = "tenant-" + std::to_string(t);
      registry->put(name, tenant_base(10 + 4 * t));
      const std::shared_ptr<const TenantEntry> entry = registry->find(name);
      for (const int quality : {40, 75}) {
        for (const data::Sample& s : ds.samples) {
          Expected e;
          e.request = tenant_request(s.image, name, quality);
          e.want.bytes = tenant_expected(s.image, entry->base, quality);
          tenant_forms.push_back(std::move(e));
        }
      }
    }
    ServiceConfig cfg;
    cfg.workers = 8;
    cfg.cache_capacity = 0;  // every request really encodes
    cfg.queue_capacity = 64;
    cfg.registry = registry;
    TranscodeService service(cfg);
    const int tenant_clients = 8;
    const ClientTally t = run_clients(service, tenant_forms, tenant_clients,
                                      static_cast<int>(tenant_forms.size()));
    EXPECT_EQ(t.ok, static_cast<std::size_t>(tenant_clients) * tenant_forms.size());
    EXPECT_EQ(t.mismatched, 0u);
    EXPECT_EQ(t.rejected + t.other, 0u);
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.tenants.size(), 12u);
    std::uint64_t tenant_requests = 0;
    for (const TenantStats& ts : st.tenants) tenant_requests += ts.requests;
    EXPECT_EQ(tenant_requests, st.completed);
  }

  // (c) An open burst into a 16-slot queue under the reject policy: every
  // response is either the synchronous payload or a typed rejection.
  {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 16;
    cfg.admission = AdmissionPolicy::kReject;
    cfg.deepn_luma = deepn_luma;
    cfg.deepn_chroma = deepn_chroma;
    TranscodeService service(cfg);
    const ClientTally t = run_clients(service, mixed, clients, 4 * per_client);
    EXPECT_EQ(t.ok + t.rejected, static_cast<std::size_t>(clients * 4 * per_client));
    EXPECT_EQ(t.mismatched, 0u);
    EXPECT_EQ(t.other, 0u);
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.rejected, t.rejected);
    EXPECT_LE(st.queue_high_water, cfg.queue_capacity);
  }
}

}  // namespace
}  // namespace dnj::serve
