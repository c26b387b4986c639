// End-to-end tests of the network front end: a real server on a loopback
// socket, the blocking Client as the peer.
//
// The load-bearing test is ByteIdenticalToSynchronousCalls: response
// payloads received over TCP must equal the synchronous in-process calls
// bit for bit — across worker counts, cache states, and both poller
// backends. That is the serving determinism contract crossing the wire;
// everything between the client and the codec (marshalling, framing,
// socket fragmentation, caching, write-back) must be
// payload-transparent for it to hold.
//
// The rest covers the connection state machine: pipelining and response
// correlation, chunked sends, protocol-error frames (garbage, version
// skew, oversized), typed overload rejection, the connection cap, idle
// timeouts, and graceful drain. Every blocking read is armed with a
// receive timeout — a hung server fails a test, never the suite.
//
// ConcurrentClientsGetSynchronousPayloads carries the contract to several
// connections at once: one thread per client pipelines bursts of mixed ops
// into a small reject-policy queue; every reply id is answered exactly
// once, with the synchronous payload or a typed rejection.
//
// StatsViewsEqualTheGatheredRegistry pins the one-store rule of the
// metrics plane: every ServiceStats, TenantStats and ServerStats field
// equals its same-named sample in the registry a scrape renders.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dnj.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace dnj::net {
namespace {

// The whole suite runs with tracing forced on: observability must never
// influence payload bytes, so the byte-identity contract is exercised in
// its strongest form — every request traced end to end.
const bool force_tracing = [] {
  obs::Tracer::instance().set_sample_every(1);
  return true;
}();

image::Image test_image(int w = 48, int h = 32, int ch = 1) {
  image::Image img(w, h, ch);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < ch; ++c)
        img.at(x, y, c) = static_cast<std::uint8_t>((x * 5 + y * 3 + c * 17 + (x * y) % 7) & 0xFF);
  return img;
}

/// A large image whose encode is slow enough to pile requests up behind it.
image::Image big_image(int side = 1024) {
  image::Image img(side, side, 1);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x)
      img.at(x, y) = static_cast<std::uint8_t>((x * x + y * 31) & 0xFF);
  return img;
}

serve::Request encode_request(const image::Image& img, int quality) {
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config.quality = quality;
  req.config.subsampling = jpeg::Subsampling::k444;
  req.image = img;
  return req;
}

/// Service + server pair bound to an ephemeral loopback port.
struct TestServer {
  explicit TestServer(serve::ServiceConfig service_cfg = {}, ServerConfig server_cfg = {})
      : service(std::move(service_cfg)), server(service, std::move(server_cfg)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", static_cast<std::uint16_t>(server.port()), &error))
        << error;
    return client;
  }

  serve::TranscodeService service;
  Server server;
  bool started = false;
};

TEST(NetServer, PingRoundTrip) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;
  EXPECT_TRUE(client.ping(&error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;  // connection is reusable
  EXPECT_GE(ts.server.stats().pings, 2u);
}

TEST(NetServer, ByteIdenticalToSynchronousCalls) {
  const image::Image img = test_image(40, 28, 3);
  api::Session session;

  for (int workers : {1, 4}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
      serve::ServiceConfig cfg;
      cfg.workers = workers;
      cfg.cache_capacity = cache;
      TestServer ts(std::move(cfg));
      Client client = ts.connect();
      std::string error;

      // encode: wire result == synchronous api::Codec result.
      serve::Request enc = encode_request(img, 85);
      const auto sync_encode = session.codec().encode(
          api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
          api::EncodeOptions().quality(85).chroma_420(false));
      ASSERT_TRUE(sync_encode.ok());
      // Twice: the second call may be served from the result cache — the
      // payload must not depend on that.
      for (int round = 0; round < 2; ++round) {
        WireReply reply;
        ASSERT_TRUE(client.call(enc, &reply, &error)) << error;
        ASSERT_EQ(reply.status, WireStatus::kOk)
            << "workers=" << workers << " cache=" << cache << " round=" << round;
        EXPECT_EQ(reply.bytes, sync_encode.value())
            << "workers=" << workers << " cache=" << cache << " round=" << round;
      }

      // decode: wire pixels == synchronous pixels.
      serve::Request dec;
      dec.kind = serve::RequestKind::kDecode;
      dec.bytes = sync_encode.value();
      const auto sync_decode = session.codec().decode(sync_encode.value());
      ASSERT_TRUE(sync_decode.ok());
      WireReply dec_reply;
      ASSERT_TRUE(client.call(dec, &dec_reply, &error)) << error;
      ASSERT_EQ(dec_reply.status, WireStatus::kOk);
      EXPECT_EQ(dec_reply.image.data(), sync_decode.value().pixels);

      // transcode.
      serve::Request trans;
      trans.kind = serve::RequestKind::kTranscode;
      trans.bytes = sync_encode.value();
      trans.config.quality = 60;
      trans.config.subsampling = jpeg::Subsampling::k444;
      const auto sync_transcode = session.codec().transcode(
          sync_encode.value(), api::EncodeOptions().quality(60).chroma_420(false));
      ASSERT_TRUE(sync_transcode.ok());
      WireReply trans_reply;
      ASSERT_TRUE(client.call(trans, &trans_reply, &error)) << error;
      ASSERT_EQ(trans_reply.status, WireStatus::kOk);
      EXPECT_EQ(trans_reply.bytes, sync_transcode.value());

      // deepn-encode: reference is the service's own synchronous path
      // (the result depends on the service's installed table pair).
      serve::Request deepn;
      deepn.kind = serve::RequestKind::kDeepnEncode;
      deepn.quality = 70;
      deepn.image = img;
      const serve::Response sync_deepn = ts.service.execute(deepn);
      ASSERT_EQ(sync_deepn.status, serve::Status::kOk);
      WireReply deepn_reply;
      ASSERT_TRUE(client.call(deepn, &deepn_reply, &error)) << error;
      ASSERT_EQ(deepn_reply.status, WireStatus::kOk);
      EXPECT_EQ(deepn_reply.bytes, sync_deepn.bytes);
    }
  }
}

TEST(NetServer, BothPollerBackendsServeIdenticalPayloads) {
  const image::Image img = test_image();
  const serve::Request req = encode_request(img, 80);

  std::vector<std::vector<std::uint8_t>> payloads;
  for (PollerBackend backend : {PollerBackend::kPoll, PollerBackend::kAuto}) {
    ServerConfig cfg;
    cfg.backend = backend;
    TestServer ts({}, std::move(cfg));
    Client client = ts.connect();
    std::string error;
    WireReply reply;
    ASSERT_TRUE(client.call(req, &reply, &error)) << error;
    ASSERT_EQ(reply.status, WireStatus::kOk);
    payloads.push_back(reply.bytes);
  }
  EXPECT_EQ(payloads[0], payloads[1]);
}

TEST(NetServer, ChunkedSendsReassemble) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  const std::vector<std::uint8_t> bytes =
      serialize_frame(make_request(99, encode_request(test_image(), 75)));
  // Dribble the frame out in small chunks with pauses: the server sees
  // partial headers and partial payloads across many read events.
  for (std::size_t off = 0; off < bytes.size(); off += 41) {
    const std::size_t n = std::min<std::size_t>(41, bytes.size() - off);
    ASSERT_TRUE(client.send_raw(bytes.data() + off, n, &error)) << error;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kOk);
  EXPECT_EQ(reply.request_id, 99u);
}

TEST(NetServer, PipelinedRequestsComeBackCorrelated) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;  // concurrent completion => replies may reorder
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  const image::Image img = test_image();
  std::map<std::uint32_t, int> quality_by_id;
  for (int q = 50; q < 58; ++q) {
    const std::uint32_t id = client.send_request(encode_request(img, q), &error);
    ASSERT_NE(id, 0u) << error;
    quality_by_id[id] = q;
  }

  api::Session session;
  const std::size_t expected_replies = quality_by_id.size();
  for (std::size_t i = 0; i < expected_replies; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
    ASSERT_EQ(reply.status, WireStatus::kOk);
    ASSERT_TRUE(quality_by_id.count(reply.request_id));
    const auto expect = session.codec().encode(
        api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
        api::EncodeOptions().quality(quality_by_id[reply.request_id]).chroma_420(false));
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(reply.bytes, expect.value());
    quality_by_id.erase(reply.request_id);  // exactly one reply per id
  }
  EXPECT_TRUE(quality_by_id.empty());
}

TEST(NetServer, GarbageGetsTypedErrorThenClose) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(client.send_raw(garbage.data(), garbage.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  // The stream is poisoned: the server closes after flushing the error.
  EXPECT_FALSE(client.recv_reply(&reply, &error));
  EXPECT_GE(ts.server.stats().protocol_errors, 1u);
}

TEST(NetServer, VersionSkewGetsTypedErrorThenClose) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> bytes = serialize_frame(make_ping(1));
  bytes[4] = kProtocolVersion + 1;  // version byte
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kVersionSkew);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, StatsOpInsideVersionOneIsMalformed) {
  // The accepted-version range lets a v1 frame in, but op 6 does not
  // exist in v1: the spec says unknown op == kMalformed, stream closes.
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  std::vector<std::uint8_t> bytes =
      serialize_frame(make_stats_request(9, StatsFormat::kPrometheus));
  bytes[4] = 1;  // a v1 client could never mean "stats" by op 6
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size(), &error));
  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, OversizedFrameGetsTypedErrorThenClose) {
  ServerConfig cfg;
  cfg.max_payload = 4096;  // small ceiling, no giant allocations needed
  TestServer ts({}, std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // A syntactically valid header announcing a payload over the ceiling.
  std::vector<std::uint8_t> header;
  append_u32(header, kMagic);
  append_u8(header, kProtocolVersion);
  append_u8(header, static_cast<std::uint8_t>(FrameType::kRequest));
  append_u8(header, static_cast<std::uint8_t>(Op::kDecode));
  append_u8(header, 0);
  append_u32(header, 1);       // request_id
  append_u64(header, 0);       // config_digest
  append_u32(header, 8192);    // payload_size: past the ceiling
  append_u32(header, 0);       // crc (never checked — header is rejected)
  ASSERT_TRUE(client.send_raw(header.data(), header.size(), &error));

  WireReply reply;
  ASSERT_TRUE(client.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kMalformed);
  EXPECT_FALSE(client.recv_reply(&reply, &error));
}

TEST(NetServer, InvalidArgumentKeepsTheConnectionAlive) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  serve::Request bad;
  bad.kind = serve::RequestKind::kDeepnEncode;
  bad.quality = 0;  // out of range, but the frame itself is well-formed
  bad.image = test_image();
  WireReply reply;
  ASSERT_TRUE(client.call(bad, &reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);

  // Unlike kMalformed, the framing is still trustworthy: same connection,
  // next request works.
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(NetServer, OverloadYieldsTypedRejection) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.admission = serve::AdmissionPolicy::kReject;
  cfg.cache_capacity = 0;
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // One slow encode occupies the worker; a burst behind it overflows the
  // one-slot queue, and the rejections come back as typed frames.
  const int kBurst = 12;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const std::uint32_t id = client.send_request(encode_request(big_image(), 75), &error);
    ASSERT_NE(id, 0u) << error;
    ids.push_back(id);
  }

  int ok = 0, rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error << " (reply " << i << ")";
    if (reply.status == WireStatus::kOk) {
      EXPECT_FALSE(reply.bytes.empty());
      ++ok;
    } else {
      EXPECT_EQ(reply.status, WireStatus::kRejected);
      EXPECT_FALSE(reply.error.empty());
      ++rejected;
    }
  }
  EXPECT_GE(ok, 1);        // the in-flight request completes
  EXPECT_GE(rejected, 1);  // and the overflow is told so, in-band
  EXPECT_EQ(ok + rejected, kBurst);
}

TEST(NetServer, ConnectionCapRejectsSurplusConnections) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  TestServer ts({}, std::move(cfg));

  Client first = ts.connect();
  std::string error;
  ASSERT_TRUE(first.ping(&error)) << error;

  // The second connection is accepted at the TCP level, told kRejected in
  // a best-effort frame, and closed.
  Client second = ts.connect();
  WireReply reply;
  ASSERT_TRUE(second.recv_reply(&reply, &error)) << error;
  EXPECT_EQ(reply.status, WireStatus::kRejected);
  EXPECT_FALSE(second.recv_reply(&reply, &error));  // closed
  EXPECT_GE(ts.server.stats().connections_rejected, 1u);

  // The first connection is unaffected.
  EXPECT_TRUE(first.ping(&error)) << error;
}

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  TestServer ts({}, std::move(cfg));
  Client client = ts.connect();
  std::string error;
  ASSERT_TRUE(client.ping(&error)) << error;

  // Go quiet past the timeout: the server closes the connection.
  WireReply reply;
  EXPECT_FALSE(client.recv_reply(&reply, &error));
  EXPECT_GE(ts.server.stats().connections_idle_closed, 1u);
}

TEST(NetServer, GracefulDrainFlushesSubmittedWork) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  // Pipeline a slow request and three fast ones, wait (bounded) until the
  // event loop has read and submitted all four — only submitted requests
  // are owed a reply — then stop the server mid-flight.
  const int kInFlight = 4;
  ASSERT_NE(client.send_request(encode_request(big_image(), 75), &error), 0u);
  for (int i = 0; i < kInFlight - 1; ++i)
    ASSERT_NE(client.send_request(encode_request(test_image(), 60 + i), &error), 0u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.server.stats().requests_submitted < kInFlight &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(ts.server.stats().requests_submitted, static_cast<std::uint64_t>(kInFlight));

  ts.server.stop();  // blocks until drained

  // Every request submitted before the drain must have produced a flushed
  // response; after them, clean EOF.
  for (int i = 0; i < kInFlight; ++i) {
    WireReply reply;
    ASSERT_TRUE(client.recv_reply(&reply, &error)) << error << " (reply " << i << ")";
    EXPECT_EQ(reply.status, WireStatus::kOk);
  }
  WireReply extra;
  EXPECT_FALSE(client.recv_reply(&extra, &error));

  // The listener is gone: new connections are refused.
  Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", static_cast<std::uint16_t>(ts.server.port() <= 0
                                                                        ? 1
                                                                        : ts.server.port()),
                            &error));
}

TEST(NetServer, StopIsIdempotentAndRestartWorks) {
  TestServer ts;
  ts.server.stop();
  ts.server.stop();
  EXPECT_FALSE(ts.server.running());
  EXPECT_EQ(ts.server.port(), -1);

  // start() after stop() brings the server back on a fresh socket.
  std::string error;
  ASSERT_TRUE(ts.server.start(&error)) << error;
  EXPECT_TRUE(ts.server.running());
  Client client = ts.connect();
  EXPECT_TRUE(client.ping(&error)) << error;
  // Double-start while running is refused.
  EXPECT_FALSE(ts.server.start(&error));
}

TEST(NetServer, StatsScrapeExposesBothLayersOverTheWire) {
  TestServer ts;
  Client client = ts.connect();
  std::string error;

  // Put at least one request through so the counters are non-trivial.
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(test_image(), 80), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // Prometheus text: service counters and net counters answer one scrape.
  std::string text;
  ASSERT_TRUE(client.scrape(StatsFormat::kPrometheus, &text, &error)) << error;
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_submitted_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_requests_completed_total"), std::string::npos);
  EXPECT_NE(text.find("net_frames_in_total"), std::string::npos);
  EXPECT_NE(text.find("net_connections_active 1"), std::string::npos);
  EXPECT_NE(text.find("net_response_bytes"), std::string::npos);

  // JSON rendering of the same registry.
  std::string json_text;
  ASSERT_TRUE(client.scrape(StatsFormat::kJson, &json_text, &error)) << error;
  EXPECT_EQ(json_text.rfind("{\"metrics\":[", 0), 0u) << json_text.substr(0, 40);
  EXPECT_NE(json_text.find("\"name\":\"serve_requests_submitted_total\""),
            std::string::npos);

  // Trace dump over the wire.
  std::string trace_text;
  ASSERT_TRUE(client.scrape(StatsFormat::kTraceJson, &trace_text, &error)) << error;
  EXPECT_NE(trace_text.find("\"clock\":\"steady_ns\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"spans\":["), std::string::npos);

  // The scrapes themselves are counted (and answered on the loop thread,
  // so they are already visible by the time the reply arrived).
  EXPECT_GE(ts.server.stats().stats_scrapes, 3u);
  std::string again;
  ASSERT_TRUE(client.scrape(StatsFormat::kPrometheus, &again, &error)) << error;
  EXPECT_NE(again.find("net_stats_scrapes_total"), std::string::npos);
}

/// The sample gathered under exactly (name, labels); a missing one fails
/// the test and reads as -1, which no field can equal.
double sample_value(const std::vector<obs::Sample>& samples, const std::string& name,
                    const obs::Labels& labels = {}) {
  for (const obs::Sample& s : samples)
    if (s.name == name && s.labels == labels) return s.value;
  ADD_FAILURE() << "no sample " << name << " with " << labels.size() << " labels";
  return -1.0;
}

/// A latency summary must equal its histogram's rendered series:
/// <prefix>_us{quantile}, <prefix>_us_count and <prefix>_us_max, with a
/// <prefix>_us_sum alongside.
void expect_latency_agrees(const std::vector<obs::Sample>& samples, const std::string& prefix,
                           const serve::LatencySummary& l, const obs::Labels& labels = {}) {
  SCOPED_TRACE(prefix);
  const std::string name = prefix + "_us";
  auto quantile = [&](const char* q) {
    obs::Labels ql = labels;
    ql.emplace_back("quantile", q);
    return sample_value(samples, name, ql);
  };
  EXPECT_EQ(static_cast<double>(l.count), sample_value(samples, name + "_count", labels));
  EXPECT_EQ(l.p50_us, quantile("0.5"));
  EXPECT_EQ(l.p95_us, quantile("0.95"));
  EXPECT_EQ(l.p99_us, quantile("0.99"));
  EXPECT_EQ(l.max_us, sample_value(samples, name + "_max", labels));
  EXPECT_EQ(l.count > 0, sample_value(samples, name + "_sum", labels) > 0.0);
}

TEST(NetServer, StatsViewsEqualTheGatheredRegistry) {
  auto tables = std::make_shared<serve::TableRegistry>();
  jpeg::EncoderConfig base;
  base.use_custom_tables = true;
  base.subsampling = jpeg::Subsampling::k444;
  base.luma_table = jpeg::QuantTable::uniform(20);
  base.chroma_table = jpeg::QuantTable::uniform(24);
  tables->put("alpha", base);
  base.luma_table = jpeg::QuantTable::uniform(36);
  tables->put("beta", base);

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.registry = tables;
  TestServer ts(std::move(cfg));
  Client client = ts.connect();
  std::string error;

  auto deepn = [](const char* tenant, int quality) {
    serve::Request req;
    req.kind = serve::RequestKind::kDeepnEncode;
    req.image = test_image();
    req.quality = quality;
    req.tenant = tenant;
    return req;
  };
  // A slow request holds the only worker while eight identical encodes
  // queue behind it; the repeats hit the result cache.
  std::vector<std::future<serve::Response>> futures;
  futures.push_back(ts.service.submit(encode_request(big_image(), 77)));
  for (int i = 0; i < 8; ++i) futures.push_back(ts.service.submit(encode_request(test_image(), 80)));
  for (int i = 0; i < 3; ++i) futures.push_back(ts.service.submit(deepn("alpha", 50)));
  futures.push_back(ts.service.submit(deepn("beta", 50)));
  futures.push_back(ts.service.submit(deepn("", 50)));
  const serve::Response unknown = ts.service.submit(deepn("nobody", 50)).get();
  EXPECT_EQ(unknown.status, serve::Status::kError);
  for (auto& f : futures) ASSERT_EQ(f.get().status, serve::Status::kOk);

  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(test_image(), 80), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);
  std::string text;
  ASSERT_TRUE(client.scrape(StatsFormat::kPrometheus, &text, &error)) << error;

  // Quiesce both layers, then read both views of the one store.
  ts.server.stop();
  ts.service.shutdown();
  const serve::ServiceStats st = ts.service.stats();
  const ServerStats ns = ts.server.stats();
  const std::vector<obs::Sample> g = ts.service.metrics_registry()->gather();

  // The workload reached every path it was built for.
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(ns.stats_scrapes, 1u);
  ASSERT_EQ(st.tenants.size(), 2u);
  EXPECT_EQ(st.tenants[0].name, "alpha");
  EXPECT_EQ(st.tenants[1].name, "beta");

  auto expect_field = [&g](std::uint64_t field, const char* name, obs::Labels labels = {}) {
    EXPECT_EQ(static_cast<double>(field), sample_value(g, name, labels)) << name;
  };
  expect_field(st.submitted, "serve_requests_submitted_total");
  expect_field(st.completed, "serve_requests_completed_total");
  expect_field(st.errors, "serve_requests_errors_total");
  expect_field(st.rejected, "serve_requests_rejected_total");
  expect_field(st.refused_shutdown, "serve_requests_refused_shutdown_total");
  for (int k = 0; k < serve::kNumRequestKinds; ++k)
    expect_field(st.per_kind[k], "serve_requests_by_kind_total",
                 {{"kind", serve::kind_name(static_cast<serve::RequestKind>(k))}});
  expect_field(st.cache_hits, "serve_result_cache_hits_total");
  expect_field(st.cache_misses, "serve_result_cache_misses_total");
  expect_field(st.cache_evictions, "serve_result_cache_evictions_total");
  expect_field(st.cache_quota_evictions, "serve_result_cache_quota_evictions_total");
  expect_field(st.cache_bytes, "serve_result_cache_bytes");
  expect_field(st.queue_capacity, "serve_queue_capacity");
  expect_field(st.queue_high_water, "serve_queue_high_water");
  // Fields kept for existing readers, with no series of their own.
  EXPECT_EQ(st.steals, 0u);            // one shared queue never steals
  EXPECT_EQ(st.table_cache_hits, 0u);  // no scaled-table cache
  // Requests the workers ran: every processed one but the unknown tenant,
  // refused at submission.
  std::uint64_t processed = 0;
  for (std::uint64_t n : st.per_kind) processed += n;
  EXPECT_EQ(st.batches, processed - 1);
  expect_field(st.ctx_huffman_builds, "serve_ctx_huffman_builds_total");
  expect_field(st.ctx_reciprocal_builds, "serve_ctx_reciprocal_builds_total");
  expect_field(st.ctx_quality_table_builds, "serve_ctx_quality_table_builds_total");
  expect_field(st.ctx_decoder_builds, "serve_ctx_decoder_builds_total");
  expect_latency_agrees(g, "serve_queue_wait", st.queue_wait);
  expect_latency_agrees(g, "serve_service_time", st.service_time);
  expect_latency_agrees(g, "serve_total", st.total);

  std::size_t tenant_series = 0;
  for (const obs::Sample& s : g) tenant_series += s.name == "serve_tenant_requests_total";
  EXPECT_EQ(tenant_series, st.tenants.size());
  for (const serve::TenantStats& t : st.tenants) {
    SCOPED_TRACE(t.name);
    const obs::Labels tl = {{"tenant", t.name}};
    expect_field(t.requests, "serve_tenant_requests_total", tl);
    expect_field(t.completed, "serve_tenant_completed_total", tl);
    expect_field(t.errors, "serve_tenant_errors_total", tl);
    expect_field(t.cache_hits, "serve_tenant_cache_hits_total", tl);
    expect_field(t.ctx_huffman_builds, "serve_tenant_ctx_huffman_builds_total", tl);
    expect_field(t.ctx_reciprocal_builds, "serve_tenant_ctx_reciprocal_builds_total", tl);
    expect_field(t.ctx_quality_table_builds, "serve_tenant_ctx_quality_table_builds_total",
                 tl);
    expect_field(t.ctx_decoder_builds, "serve_tenant_ctx_decoder_builds_total", tl);
    expect_latency_agrees(g, "serve_tenant_service_time", t.service_time, tl);
  }

  expect_field(ns.connections_accepted, "net_connections_accepted_total");
  expect_field(ns.connections_active, "net_connections_active");
  expect_field(ns.connections_rejected, "net_connections_rejected_total");
  expect_field(ns.connections_idle_closed, "net_connections_idle_closed_total");
  expect_field(ns.frames_in, "net_frames_in_total");
  expect_field(ns.frames_out, "net_frames_out_total");
  expect_field(ns.pings, "net_pings_total");
  expect_field(ns.requests_submitted, "net_requests_submitted_total");
  expect_field(ns.protocol_errors, "net_protocol_errors_total");
  expect_field(ns.responses_dropped, "net_responses_dropped_total");
  expect_field(ns.stats_scrapes, "net_stats_scrapes_total");
  expect_field(ns.job_ops, "net_job_ops_total");
}

TEST(NetServer, TracedRequestYieldsNestedSpansAcrossAllLayers) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();

  TestServer ts;
  Client client = ts.connect();
  std::string error;
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(test_image(), 80), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // The root record lands on the loop thread just after the response bytes
  // hit the socket, so it can trail the client's receive by a moment.
  std::uint64_t trace = 0;
  for (int i = 0; i < 400 && trace == 0; ++i) {
    for (const auto& rec : tracer.dump())
      if (rec.stage == obs::Stage::kRequest && rec.parent_id == 0) trace = rec.trace_id;
    if (trace == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(trace, 0u) << "no completed request trace was recorded";

  std::map<obs::Stage, int> stages;
  std::uint64_t root_span = 0, root_start = 0, root_end = 0;
  std::vector<obs::SpanRecord> spans;
  for (const auto& rec : tracer.dump()) {
    if (rec.trace_id != trace) continue;
    spans.push_back(rec);
    ++stages[rec.stage];
    if (rec.stage == obs::Stage::kRequest) {
      root_span = rec.span_id;
      root_start = rec.start_ns;
      root_end = rec.end_ns;
    }
  }

  // One wire request must produce the full nested picture: net read,
  // parse, queue wait, service, at least two codec stages, net write, and
  // the request root — at least seven spans in all.
  EXPECT_GE(spans.size(), 7u);
  EXPECT_EQ(stages[obs::Stage::kRequest], 1);
  EXPECT_GE(stages[obs::Stage::kNetRead], 1);
  EXPECT_GE(stages[obs::Stage::kNetParse], 1);
  EXPECT_GE(stages[obs::Stage::kQueueWait], 1);
  EXPECT_GE(stages[obs::Stage::kService], 1);
  EXPECT_GE(stages[obs::Stage::kNetWrite], 1);
  const int codec_stages = stages[obs::Stage::kEncodeTile] +
                           stages[obs::Stage::kEncodeDct] +
                           stages[obs::Stage::kEncodeQuant] +
                           stages[obs::Stage::kEncodeEntropy];
  EXPECT_GE(codec_stages, 2);

  // Nesting: every span belongs to the root's tree, and the direct
  // children of the root sit inside its time window.
  ASSERT_NE(root_span, 0u);
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& rec : spans) by_id[rec.span_id] = &rec;
  for (const auto& rec : spans) {
    if (rec.span_id == root_span) continue;
    // Walk parents up to the root (cycle-safe via the span count bound).
    std::uint64_t cur = rec.parent_id;
    std::size_t hops = 0;
    while (cur != root_span && hops++ < spans.size()) {
      auto it = by_id.find(cur);
      ASSERT_NE(it, by_id.end()) << "span " << rec.span_id << " parents to unknown id "
                                 << cur << " (stage " << obs::stage_name(rec.stage) << ")";
      cur = it->second->parent_id;
    }
    EXPECT_EQ(cur, root_span);
    if (rec.parent_id == root_span && rec.stage != obs::Stage::kNetRead) {
      EXPECT_GE(rec.start_ns, root_start) << obs::stage_name(rec.stage);
      EXPECT_LE(rec.end_ns, root_end) << obs::stage_name(rec.stage);
    }
  }
}

TEST(NetApi, ServiceListenServesTheProtocol) {
  api::Service service(api::ServiceOptions().workers(2));
  const api::Status listening = service.listen(api::ListenOptions());
  ASSERT_TRUE(listening.ok()) << listening.message();
  ASSERT_GT(service.listen_port(), 0);

  // Double-listen is refused while the first listener is up.
  EXPECT_FALSE(service.listen(api::ListenOptions()).ok());

  const image::Image img = test_image();
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1",
                             static_cast<std::uint16_t>(service.listen_port()), &error))
      << error;
  WireReply reply;
  ASSERT_TRUE(client.call(encode_request(img, 85), &reply, &error)) << error;
  ASSERT_EQ(reply.status, WireStatus::kOk);

  // Byte identity against the synchronous public API.
  api::Session session;
  const auto sync = session.codec().encode(
      api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
      api::EncodeOptions().quality(85).chroma_420(false));
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(reply.bytes, sync.value());

  const int port = service.listen_port();
  service.stop_listening();
  EXPECT_EQ(service.listen_port(), -1);
  Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", static_cast<std::uint16_t>(port), &error));

  // A fresh listen after stop_listening works (new ephemeral port).
  ASSERT_TRUE(service.listen(api::ListenOptions()).ok());
  EXPECT_GT(service.listen_port(), 0);
  service.shutdown();  // implies stop_listening
  EXPECT_EQ(service.listen_port(), -1);
}

/// One wire request and its synchronous payload.
struct WireForm {
  serve::Request request;
  std::vector<std::uint8_t> want_bytes;   ///< encode / transcode / deepn
  std::vector<std::uint8_t> want_pixels;  ///< decode
};

TEST(NetServer, ConcurrentClientsGetSynchronousPayloads) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 8;
  cfg.admission = serve::AdmissionPolicy::kReject;
  TestServer ts(std::move(cfg));

  // Mixed ops over a few images, each paired with its synchronous result.
  api::Session session;
  std::vector<WireForm> forms;
  const image::Image images[] = {test_image(), test_image(40, 28, 3), test_image(33, 17, 1)};
  for (std::size_t k = 0; k < std::size(images); ++k) {
    const image::Image& img = images[k];
    const int quality = 70 + 5 * static_cast<int>(k);
    const auto stored = session.codec().encode(
        api::ImageView{img.data().data(), img.width(), img.height(), img.channels()},
        api::EncodeOptions().quality(quality).chroma_420(false));
    ASSERT_TRUE(stored.ok());

    WireForm enc;
    enc.request = encode_request(img, quality);
    enc.want_bytes = stored.value();
    forms.push_back(std::move(enc));

    WireForm dec;
    dec.request.kind = serve::RequestKind::kDecode;
    dec.request.bytes = stored.value();
    const auto decoded = session.codec().decode(stored.value());
    ASSERT_TRUE(decoded.ok());
    dec.want_pixels = decoded.value().pixels;
    forms.push_back(std::move(dec));

    WireForm trans;
    trans.request.kind = serve::RequestKind::kTranscode;
    trans.request.bytes = stored.value();
    trans.request.config.quality = 60;
    trans.request.config.subsampling = jpeg::Subsampling::k444;
    const auto transcoded = session.codec().transcode(
        stored.value(), api::EncodeOptions().quality(60).chroma_420(false));
    ASSERT_TRUE(transcoded.ok());
    trans.want_bytes = transcoded.value();
    forms.push_back(std::move(trans));

    WireForm deepn;
    deepn.request.kind = serve::RequestKind::kDeepnEncode;
    deepn.request.quality = quality;
    deepn.request.image = img;
    const serve::Response sync_deepn = ts.service.execute(deepn.request);
    ASSERT_EQ(sync_deepn.status, serve::Status::kOk);
    deepn.want_bytes = sync_deepn.bytes;
    forms.push_back(std::move(deepn));
  }

  // Four connections, each on its own thread, pipeline bursts into the
  // small reject-policy queue; replies are paired back up by request id.
  constexpr int kClients = 4;
  constexpr int kBursts = 4;
  constexpr int kBurst = 24;
  struct Tally {
    std::size_t ok = 0, mismatched = 0, rejected = 0, other = 0, stray = 0, failed = 0;
  };
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(ts.connect());
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[static_cast<std::size_t>(c)];
      Tally& t = tallies[static_cast<std::size_t>(c)];
      std::string error;
      for (int burst = 0; burst < kBursts; ++burst) {
        std::map<std::uint32_t, std::size_t> pending;  // request id -> form
        for (int i = 0; i < kBurst; ++i) {
          const std::size_t form = static_cast<std::size_t>(burst * kBurst + i + c) % forms.size();
          const std::uint32_t id = client.send_request(forms[form].request, &error);
          if (id == 0) {
            ++t.failed;
            return;
          }
          pending.emplace(id, form);
        }
        while (!pending.empty()) {
          WireReply reply;
          if (!client.recv_reply(&reply, &error)) {
            ++t.failed;
            return;
          }
          const auto it = pending.find(reply.request_id);
          if (it == pending.end()) {  // unknown or already answered id
            ++t.stray;
            continue;
          }
          const WireForm& f = forms[it->second];
          pending.erase(it);
          if (reply.status == WireStatus::kRejected)
            ++t.rejected;
          else if (reply.status != WireStatus::kOk)
            ++t.other;
          else if (reply.bytes == f.want_bytes && reply.image.data() == f.want_pixels)
            ++t.ok;
          else
            ++t.mismatched;
        }
      }
      // Nothing else is owed on the connection: the next reply is the pong.
      if (!client.ping(&error)) ++t.failed;
    });
  }
  for (std::thread& th : threads) th.join();

  for (int c = 0; c < kClients; ++c) {
    const Tally& t = tallies[static_cast<std::size_t>(c)];
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_EQ(t.ok + t.rejected, static_cast<std::size_t>(kBursts * kBurst));
    EXPECT_EQ(t.mismatched, 0u);
    EXPECT_EQ(t.other, 0u);
    EXPECT_EQ(t.stray, 0u);
    EXPECT_EQ(t.failed, 0u);
  }
}

}  // namespace
}  // namespace dnj::net
