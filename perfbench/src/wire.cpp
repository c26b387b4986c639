// wire_tiny and wire_imagenet: the serving stack (net::Server over
// serve::TranscodeService) on a loopback socket, driven open loop at fixed
// absolute rates by one generator thread.
//
// Untraced run:  warm-up, a nominal-rate phase (p50/p99 from each request's
// due time, bytes per image, CPU per op, peak RSS), then the fixed rate
// ladder, climbed from the bottom; capacity is the goodput of the highest
// rung that held its p99 limit with no failures, no generator lag and no
// latency climbing through the rung.
//
// Traced run:    warm-up, an untraced and a traced nominal-rate phase (their
// p50 difference is the tracing overhead); a sample of the traced requests
// becomes span trees (generator lag, client serialize, server-side frame
// parse, queue wait, service with the jpeg stages inside) and the layer
// metrics are read from those spans, from the reply fields and from the
// service counters.
//
// Every reply is checked with memcmp against the synchronous api::Codec
// result under the same options. Reply payloads wait for that check in an
// unlinked file, not in memory, so the peak RSS is the stack's own.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/convert.hpp"
#include "api/dnj.hpp"
#include "core/frequency_analysis.hpp"
#include "core/plm.hpp"
#include "core/sa_optimizer.hpp"
#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "jobs/job_manager.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/rate_control.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "schedule.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = dnj::api;
namespace net = dnj::net;
namespace serve = dnj::serve;
using dnj::image::Image;

// ----------------------------------------------------------------- spec

struct Spec {
  int width = 32, height = 32, channels = 1;
  int pool_per_class = 64;    ///< pool = 8 classes x this
  int tenants = 12;
  int design_per_class = 2;   ///< tenant design sample = 8 x this
  std::vector<int> qualities{50, 75};
  Mix mix;
  std::size_t traced_ops = 3000;  ///< sampled span trees in the traced run
  /// Fixed absolute load, set once from the parent commit on a 4-core
  /// machine and never recalibrated per run: the offered rate p50 is
  /// measured at and the ladder of offered rates capacity is read from
  /// (requests/s), and the p99 a ladder rung must hold.
  double nominal_rps = 0.0;
  std::vector<double> ladder;
  double p99_limit_ms = 0.0;
  int setups = 5;  ///< set-up repetitions; setup_s is their median
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "wire_tiny") {
    s.mix.pool = 8 * 64;
    s.mix.item_zipf_s = 1.0;
    s.mix.tenants = 12;
    s.mix.tenant_zipf_s = 1.0;
    s.mix.qualities = 2;
    s.mix.transcode_share = 0.15;
    s.mix.decode_share = 0.10;
    s.nominal_rps = 10000;
    s.ladder = {36000, 48000, 60000, 66000, 72000, 75000, 78000, 81000, 84000,
                87000, 90000, 94000, 98000, 104000, 110000, 120000, 130000, 140000};
    s.p99_limit_ms = 50.0;
    s.setups = 15;
    return s;
  }
  if (workload == "wire_imagenet") {
    s.width = s.height = 224;
    s.channels = 3;
    s.pool_per_class = 2;
    s.tenants = 2;
    s.design_per_class = 1;
    s.qualities = {50};
    s.mix.pool = 8 * 2;
    s.mix.tenants = 2;
    s.mix.qualities = 1;
    // A fifth transcodes (several times an encode's codec work): the median
    // falls inside the encode population, not in the gap between the two.
    s.mix.transcode_share = 0.2;
    s.mix.unique = true;
    s.traced_ops = 300;
    s.nominal_rps = 300;
    s.ladder = {400, 600, 700, 750, 800, 850, 900, 950, 1000, 1050,
                1100, 1150, 1200, 1300, 1400, 1600, 1800, 2000, 2400};
    s.p99_limit_ms = 100.0;
    s.setups = 9;
    return s;
  }
  throw std::invalid_argument("unknown wire workload: " + workload);
}

// ----------------------------------------------------------- connections

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  net::FrameParser parser;
  std::uint32_t next_id = 1;
  std::uint32_t base_id = 1;  ///< first request id of the current phase
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

std::unique_ptr<Conn> connect_loopback(int port) {
  auto c = std::make_unique<Conn>();
  c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  return c;
}

// ----------------------------------------------------------------- spool

/// The reply payloads of a phase, kept in an unlinked file until verify()
/// reads them back, so that peak_rss_mb measures the stack and not the
/// replies the generator holds.
class Spool {
 public:
  explicit Spool(const std::string& dir) {
    const std::string path = dir + "/payloads-" + std::to_string(::getpid());
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    if (fd_ < 0) throw std::runtime_error("cannot open " + path);
    ::unlink(path.c_str());
    buf_.reserve(kBufferBytes);
  }
  ~Spool() { ::close(fd_); }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  /// Appends `n` bytes and returns their offset.
  std::uint64_t append(const std::uint8_t* p, std::size_t n) {
    if (buf_.size() + n > kBufferBytes) flush();
    const std::uint64_t off = written_ + buf_.size();
    buf_.insert(buf_.end(), p, p + n);
    return off;
  }
  /// Writes out the buffer; false once any write has failed.
  bool flush() {
    for (std::size_t done = 0; done < buf_.size();) {
      const ssize_t k = ::pwrite(fd_, buf_.data() + done, buf_.size() - done,
                                 static_cast<off_t>(written_ + done));
      if (k > 0) {
        done += static_cast<std::size_t>(k);
      } else if (k == 0 || errno != EINTR) {
        ok_ = false;
        break;
      }
    }
    written_ += buf_.size();
    buf_.clear();
    return ok_;
  }
  /// Reads back `n` bytes at `off` (after flush()); thread-safe.
  bool read(std::uint64_t off, std::size_t n, std::vector<std::uint8_t>& out) const {
    out.resize(n);
    for (std::size_t done = 0; done < n;) {
      const ssize_t k = ::pread(fd_, out.data() + done, n - done, static_cast<off_t>(off + done));
      if (k > 0)
        done += static_cast<std::size_t>(k);
      else if (k == 0 || errno != EINTR)
        return false;
    }
    return true;
  }
  void clear() {
    buf_.clear();
    written_ = 0;
    if (::ftruncate(fd_, 0) != 0) ok_ = false;
  }

  static constexpr std::size_t kBufferBytes = std::size_t{256} << 10;

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::uint64_t written_ = 0;
  bool ok_ = true;
};

// ----------------------------------------------------------------- stack

/// Everything set-up builds: the input pool, the tenants' designed tables,
/// the server and the generator's connections.
struct Stack {
  std::vector<Image> pool;
  std::vector<std::vector<std::uint8_t>> jpegs;  ///< pool under standard tables
  std::vector<int> qualities;
  std::vector<dnj::data::Dataset> samples;     ///< each tenant's design sample
  std::vector<std::vector<api::EncodeOptions>> options;        ///< [tenant][quality]
  std::vector<std::vector<dnj::jpeg::EncoderConfig>> configs;  ///< same, wire form
  std::unique_ptr<serve::TranscodeService> service;
  std::unique_ptr<dnj::jobs::JobManager> jobs;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<Conn>> conns;
  std::unique_ptr<Spool> spool;

  ~Stack() {
    conns.clear();
    if (server) server->stop();
    jobs.reset();
    if (service) service->shutdown();
  }
};

dnj::data::GeneratorConfig gen_config(const Spec& spec, std::uint64_t seed) {
  dnj::data::GeneratorConfig g;
  g.width = spec.width;
  g.height = spec.height;
  g.channels = spec.channels;
  g.seed = seed;
  return g;
}

/// The pool and the tenants' design samples do not depend on the run's seed,
/// which picks the schedule and the stamps only: pools of a few hundred
/// images would otherwise swing bytes_per_image from seed to seed.
constexpr std::uint64_t kContentSeed = 0x224224ULL;

std::unique_ptr<Stack> set_up(const Spec& spec, bool with_jobs, const std::string& spool_dir) {
  auto st = std::make_unique<Stack>();
  st->spool = std::make_unique<Spool>(spool_dir);
  st->qualities = spec.qualities;
  api::Session session;
  const api::Codec codec = session.codec();

  const dnj::data::Dataset pool =
      dnj::data::SyntheticDatasetGenerator(gen_config(spec, kContentSeed))
          .generate(spec.pool_per_class);
  const api::EncodeOptions source = api::EncodeOptions().quality(90).chroma_420(spec.channels == 3);
  for (const dnj::data::Sample& s : pool.samples) {
    st->pool.push_back(s.image);
    auto enc = codec.encode(api::ImageView{s.image.data().data(), s.image.width(),
                                           s.image.height(), s.image.channels()},
                            source);
    if (!enc.ok()) throw std::runtime_error("pool encode: " + enc.status().message());
    st->jpegs.push_back(std::move(enc.value()));
  }

  // Each tenant's DeepN tables come from the design flow on its own sample.
  std::vector<dnj::jpeg::QuantTable> tables;
  for (int t = 0; t < spec.tenants; ++t) {
    std::uint64_t tenant_seed = kContentSeed ^ (0x7E4A47ULL * static_cast<std::uint64_t>(t + 1));
    st->samples.push_back(dnj::data::SyntheticDatasetGenerator(
                              gen_config(spec, splitmix64(tenant_seed)))
                              .generate(spec.design_per_class));
    api::TableDesigner designer = session.designer();
    for (const dnj::data::Sample& s : st->samples.back().samples)
      designer.add(api::ImageView{s.image.data().data(), s.image.width(), s.image.height(),
                                  s.image.channels()},
                   s.label);
    auto design = designer.design();
    if (!design.ok()) throw std::runtime_error("design: " + design.status().message());
    tables.emplace_back(design.value().table);
    std::vector<api::EncodeOptions> per_q;
    std::vector<dnj::jpeg::EncoderConfig> per_q_cfg;
    for (int q : spec.qualities) {
      // The tenant's tables IJG-scaled to q, as the serving layer scales them.
      const dnj::jpeg::QuantTable scaled = tables.back().scaled(q);
      api::QuantTableValues v{};
      for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = scaled.step(i);
      per_q.push_back(api::EncodeOptions().custom_tables(v, v).chroma_420(false));
      per_q_cfg.push_back(api::detail::to_config(per_q.back()));
    }
    st->options.push_back(std::move(per_q));
    st->configs.push_back(std::move(per_q_cfg));
  }

  serve::ServiceConfig cfg;
  // One CPU each for the event loop and the generator, and one left idle.
  // With every CPU busy (two workers on four CPUs) wire_tiny's capacity
  // swung by 20-40% (IQR over median, ten runs) as the host's other load
  // came and went; with one idle it stayed within 7%.
  cfg.workers = std::max(1, static_cast<int>(nproc()) - 3);
  cfg.queue_capacity = 65536;  // overload shows as latency, not rejections
  cfg.admission = serve::AdmissionPolicy::kReject;
  cfg.deepn_luma = tables.front();  // tenant 0 is the server's own DeepN pair
  cfg.deepn_chroma = tables.front();
  st->service = std::make_unique<serve::TranscodeService>(std::move(cfg));
  net::ServerConfig scfg;
  if (with_jobs) {
    dnj::jobs::JobManagerConfig jcfg;
    jcfg.workers = 1;
    jcfg.checkpoint_interval = 16;
    jcfg.registry = st->service->registry();
    jcfg.metrics = st->service->metrics_registry();
    st->jobs = std::make_unique<dnj::jobs::JobManager>(std::move(jcfg));
    scfg.jobs = st->jobs.get();
  }
  st->server = std::make_unique<net::Server>(*st->service, scfg);
  std::string error;
  if (!st->server->start(&error)) throw std::runtime_error("server start: " + error);
  for (int i = 0; i < 2; ++i) st->conns.push_back(connect_loopback(st->server->port()));
  return st;
}

// --------------------------------------------------------------- requests

Image stamped_image(const Image& base, std::uint64_t stamp) {
  Image img = base;
  if (stamp != 0)
    for (int k = 0; k < 8; ++k)
      img.data()[static_cast<std::size_t>(k * img.channels())] =
          static_cast<std::uint8_t>(stamp >> (8 * k));
  return img;
}

/// The pooled JPEG with a COM segment carrying the stamp right after SOI:
/// distinct bytes (so the result cache cannot hit), identical pixels.
std::vector<std::uint8_t> stamped_jpeg(const std::vector<std::uint8_t>& base,
                                       std::uint64_t stamp) {
  if (stamp == 0) return base;
  std::vector<std::uint8_t> out;
  out.reserve(base.size() + 12);
  out.insert(out.end(), base.begin(), base.begin() + 2);
  const std::uint8_t com[4] = {0xFF, 0xFE, 0x00, 0x0A};
  out.insert(out.end(), com, com + 4);
  for (int k = 0; k < 8; ++k) out.push_back(static_cast<std::uint8_t>(stamp >> (8 * k)));
  out.insert(out.end(), base.begin() + 2, base.end());
  return out;
}

serve::Request build_request(const Stack& st, const Draw& d) {
  serve::Request req;
  switch (d.op) {
    case OpKind::kDeepn:
      req.kind = serve::RequestKind::kDeepnEncode;
      req.image = stamped_image(st.pool[d.item], d.stamp);
      req.quality = st.qualities[d.quality];
      break;
    case OpKind::kTenantEncode:
      req.kind = serve::RequestKind::kEncode;
      req.image = stamped_image(st.pool[d.item], d.stamp);
      req.config = st.configs[d.tenant][d.quality];
      break;
    case OpKind::kTranscode:
      req.kind = serve::RequestKind::kTranscode;
      req.bytes = stamped_jpeg(st.jpegs[d.item], d.stamp);
      req.config = st.configs[d.tenant][d.quality];
      break;
    case OpKind::kDecode:
      req.kind = serve::RequestKind::kDecode;
      req.bytes = st.jpegs[d.item];
      break;
  }
  return req;
}

// ------------------------------------------------------------------ phase

struct Rec {
  std::uint64_t due = 0, send = 0, ser_ns = 0, recv = 0;
  std::uint64_t payload_off = 0;  ///< reply payload in the spool
  std::uint32_t payload_len = 0;
  std::uint32_t req_bytes = 0, resp_bytes = 0;
  std::uint32_t width = 0, height = 0;       ///< of a decode reply's image
  float queue_us = 0.0f, service_us = 0.0f;  ///< reply fields
  net::WireStatus status = net::WireStatus::kOk;
  bool done = false;
  bool cache_hit = false;
  bool ok = false;  ///< kOk reply whose payload matched
};

struct Phase {
  double rate = 0.0, seconds = 0.0;
  std::uint64_t t0 = 0;  ///< due time of request 0
  std::vector<Draw> draws;
  std::vector<Rec> recs;
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> captured;
  double gen_cpu_s = 0.0, proc_cpu_s = 0.0;
  bool io_error = false;
  /// The host's CPU accounting every 0.5 s while requests go out: (time, ticks).
  std::vector<std::pair<std::uint64_t, HostTicks>> host;
  // Filled by verify().
  std::size_t ok = 0, failed = 0, mismatches = 0;
  std::vector<double> out_bytes;  ///< DeepN output bytes of every checked encode/transcode

  /// Memory the generator holds for the phase: schedule, records, spool buffer.
  double held_mb() const {
    return static_cast<double>(draws.capacity() * sizeof(Draw) + recs.capacity() * sizeof(Rec) +
                               Spool::kBufferBytes) /
           (1024.0 * 1024.0);
  }
};

/// The schedule and the records of `rate * seconds` requests, allocated
/// (and zeroed, so resident) before the phase is driven.
Phase make_phase(const Spec& spec, std::uint64_t seed, std::size_t first, double rate,
                 double seconds) {
  Phase ph;
  ph.rate = rate;
  ph.seconds = seconds;
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
  ph.draws = make_schedule(spec.mix, seed, first, n);
  ph.recs.resize(n);
  return ph;
}

/// Drives a phase open loop: request i is due at t0 + i / rate whatever the
/// replies do, and goes out on connection i mod (number of connections).
/// `capture_every` > 0 keeps every n-th request frame and times
/// client-side serialization.
void drive(Stack& st, Phase& ph, std::size_t capture_every) {
  const std::size_t n = ph.recs.size();
  const std::size_t conns = st.conns.size();
  for (auto& c : st.conns) c->base_id = c->next_id;
  Spool& spool = *st.spool;
  spool.clear();
  const double interval_ns = 1e9 / ph.rate;
  ph.t0 = now_ns() + 1000000;
  const auto due = [&](std::size_t i) {
    return ph.t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
  };
  const std::uint64_t drain_ns = 5000000000ULL;
  const double cpu0 = process_cpu_s(), gcpu0 = thread_cpu_s();
  const std::uint64_t host_every_ns = 500000000;
  ph.host.emplace_back(now_ns(), host_ticks());
  std::vector<std::uint8_t> buf(1 << 18);
  std::size_t i = 0, received = 0;
  const std::size_t max_pending = std::size_t{64} << 20;

  while (!ph.io_error) {
    std::uint64_t now = now_ns();
    if (i < n && now >= ph.host.back().first + host_every_ns)
      ph.host.emplace_back(now, host_ticks());
    while (i < n && due(i) <= now) {
      Conn& c = *st.conns[i % conns];
      if (c.out.size() - c.out_off > max_pending) break;
      Rec& r = ph.recs[i];
      r.due = due(i);
      r.send = now;
      const serve::Request req = build_request(st, ph.draws[i]);
      const std::uint32_t id = c.next_id++;
      std::vector<std::uint8_t> bytes;
      if (capture_every > 0) {
        const std::uint64_t s0 = now_ns();
        bytes = net::serialize_frame(net::make_request(id, req));
        r.ser_ns = now_ns() - s0;
        if (i % capture_every == 0) ph.captured.emplace_back(i, bytes);
      } else {
        bytes = net::serialize_frame(net::make_request(id, req));
      }
      r.req_bytes = static_cast<std::uint32_t>(bytes.size());
      c.out.insert(c.out.end(), bytes.begin(), bytes.end());
      ++i;
      now = now_ns();
    }

    bool pending_out = false;
    for (std::size_t ci = 0; ci < conns; ++ci) {
      Conn& c = *st.conns[ci];
      while (c.out_off < c.out.size()) {
        const ssize_t k = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                 MSG_NOSIGNAL);
        if (k > 0) {
          c.out_off += static_cast<std::size_t>(k);
        } else {
          if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            ph.io_error = true;
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      } else {
        pending_out = true;
        if (c.out_off > (std::size_t{8} << 20)) {
          c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
          c.out_off = 0;
        }
      }
      for (;;) {
        const ssize_t k = ::recv(c.fd, buf.data(), buf.size(), 0);
        if (k > 0) {
          c.parser.feed(buf.data(), static_cast<std::size_t>(k));
          continue;
        }
        if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR))
          ph.io_error = true;
        break;
      }
      net::Frame f;
      while (c.parser.next(&f) == net::ParseResult::kFrame) {
        net::WireReply rep;
        // Ids on a connection are consecutive and requests go round robin.
        const std::size_t j = static_cast<std::size_t>(f.request_id - c.base_id) * conns + ci;
        if (f.request_id < c.base_id || j >= n || !net::parse_response(f, &rep)) {
          ph.io_error = true;
          break;
        }
        Rec& r = ph.recs[j];
        r.recv = now_ns();
        r.resp_bytes = static_cast<std::uint32_t>(net::kHeaderSize + f.payload.size());
        r.status = rep.status;
        r.cache_hit = rep.cache_hit;
        r.queue_us = static_cast<float>(rep.queue_us);
        r.service_us = static_cast<float>(rep.service_us);
        const std::vector<std::uint8_t>& payload =
            ph.draws[j].op == OpKind::kDecode ? rep.image.data() : rep.bytes;
        r.width = static_cast<std::uint32_t>(rep.image.width());
        r.height = static_cast<std::uint32_t>(rep.image.height());
        r.payload_off = spool.append(payload.data(), payload.size());
        r.payload_len = static_cast<std::uint32_t>(payload.size());
        r.done = true;
        ++received;
      }
      if (c.parser.broken()) ph.io_error = true;
    }

    now = now_ns();
    if (i == n && received == n) break;
    if (i == n && now > due(n - 1) + drain_ns) break;
    const std::uint64_t wait_ns = i < n ? (due(i) > now ? due(i) - now : 0) : 2000000;
    if (wait_ns > 5000) {
      std::vector<pollfd> pfds;
      for (auto& c : st.conns)
        pfds.push_back({c->fd, static_cast<short>(POLLIN | (pending_out ? POLLOUT : 0)), 0});
      const std::uint64_t sleep_ns = std::min<std::uint64_t>(wait_ns, 2000000);
      timespec ts{static_cast<time_t>(sleep_ns / 1000000000ULL),
                  static_cast<long>(sleep_ns % 1000000000ULL)};
      ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    }
  }
  ph.host.emplace_back(now_ns(), host_ticks());
  ph.proc_cpu_s = process_cpu_s() - cpu0;
  ph.gen_cpu_s = thread_cpu_s() - gcpu0;
  if (!spool.flush()) throw std::runtime_error("cannot write the reply payloads to the spool");
}

/// memcmp of every reply against the synchronous api::Codec result under
/// the same options, on nproc threads after the phase (untimed).
void verify(const Stack& st, Phase& ph) {
  const unsigned threads = std::max(1u, nproc());
  std::atomic<std::size_t> next{0};
  std::vector<std::size_t> ok(threads), failed(threads), mism(threads);
  std::vector<std::vector<double>> bytes(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      api::Session session;
      const api::Codec codec = session.codec();
      std::vector<std::uint8_t> got;
      for (std::size_t j = next++; j < ph.recs.size(); j = next++) {
        Rec& r = ph.recs[j];
        const Draw& d = ph.draws[j];
        if (!r.done || r.status != net::WireStatus::kOk) {
          ++failed[t];
          continue;
        }
        bool match = st.spool->read(r.payload_off, r.payload_len, got);
        if (d.op == OpKind::kDecode) {
          auto want = codec.decode(st.jpegs[d.item]);
          match = match && want.ok() && static_cast<std::uint32_t>(want.value().width) == r.width &&
                  static_cast<std::uint32_t>(want.value().height) == r.height &&
                  want.value().pixels.size() == got.size() &&
                  std::memcmp(want.value().pixels.data(), got.data(), got.size()) == 0;
        } else {
          const api::EncodeOptions& opts =
              st.options[d.op == OpKind::kDeepn ? 0 : d.tenant][d.quality];
          api::Result<std::vector<std::uint8_t>> want =
              d.op == OpKind::kTranscode
                  ? codec.transcode(stamped_jpeg(st.jpegs[d.item], d.stamp), opts)
                  : [&] {
                      const Image img = stamped_image(st.pool[d.item], d.stamp);
                      return codec.encode(api::ImageView{img.data().data(), img.width(),
                                                         img.height(), img.channels()},
                                          opts);
                    }();
          match = match && want.ok() && want.value().size() == got.size() &&
                  std::memcmp(want.value().data(), got.data(), got.size()) == 0;
          if (match) bytes[t].push_back(static_cast<double>(got.size()));
        }
        if (match) {
          r.ok = true;
          ++ok[t];
        } else {
          ++failed[t];
          ++mism[t];
        }
      }
    });
  for (std::thread& th : pool) th.join();
  for (unsigned t = 0; t < threads; ++t) {
    ph.ok += ok[t];
    ph.failed += failed[t];
    ph.mismatches += mism[t];
    ph.out_bytes.insert(ph.out_bytes.end(), bytes[t].begin(), bytes[t].end());
  }
}

/// Verifies a phase and books its ops on the result.
void settle(const Stack& st, Phase& ph, Result& result, const char* name) {
  verify(st, ph);
  result.add_ops(ph.recs.size(), ph.failed);
  if (ph.io_error) result.mark_incorrect(std::string(name) + ": connection error");
  if (ph.mismatches > 0)
    result.mark_incorrect(std::string(name) + ": " + std::to_string(ph.mismatches) +
                          " payload mismatch(es) against api::Codec");
}

/// Latencies (ms, from due time) of the matched replies among requests
/// [lo, hi) of a phase.
std::vector<double> latencies_ms(const Phase& ph, std::size_t lo = 0,
                                 std::size_t hi = static_cast<std::size_t>(-1)) {
  std::vector<double> v;
  for (std::size_t j = lo; j < std::min(hi, ph.recs.size()); ++j)
    if (ph.recs[j].ok) v.push_back(static_cast<double>(ph.recs[j].recv - ph.recs[j].due) * 1e-6);
  return v;
}

/// Latencies (ms, from due time) of the matched replies due in the calmest
/// quarter of the phase's 0.5 s blocks, ranked by the share of the host's
/// CPU time its hypervisor stole. The ranking never looks at latency, so
/// the stack cannot choose its own good moments; it drops the stretches in
/// which the host, not the stack, set the latency.
std::vector<double> calm_latencies_ms(const Phase& ph) {
  std::vector<std::pair<double, std::size_t>> blocks;
  for (std::size_t b = 0; b + 1 < ph.host.size(); ++b)
    blocks.emplace_back(steal_share(ph.host[b].second, ph.host[b + 1].second), b);
  std::sort(blocks.begin(), blocks.end());
  std::vector<bool> calm(blocks.size(), false);
  for (std::size_t k = 0; k < std::max<std::size_t>(1, blocks.size() / 4) && k < blocks.size(); ++k)
    calm[blocks[k].second] = true;
  std::vector<double> v;
  for (const Rec& r : ph.recs) {
    if (!r.ok) continue;
    // Block b covers [host[b].first, host[b + 1].first).
    const auto it = std::upper_bound(
        ph.host.begin(), ph.host.end(), r.due,
        [](std::uint64_t t, const std::pair<std::uint64_t, HostTicks>& h) { return t < h.first; });
    const std::size_t b = static_cast<std::size_t>(it - ph.host.begin());
    if (b >= 1 && b - 1 < calm.size() && calm[b - 1])
      v.push_back(static_cast<double>(r.recv - r.due) * 1e-6);
  }
  return v;
}

/// Generator lag (due -> send) of the last fifth of the phase, ms.
double tail_lag_ms(const Phase& ph) {
  std::vector<double> v;
  for (std::size_t j = ph.recs.size() * 4 / 5; j < ph.recs.size(); ++j)
    if (ph.recs[j].send != 0)
      v.push_back(static_cast<double>(ph.recs[j].send - ph.recs[j].due) * 1e-6);
  return v.empty() ? 1e9 : percentile(v, 0.5).value;
}

struct RungVerdict {
  double p99_ms = 0.0, growth_ms = 0.0, lag_ms = 0.0, goodput = 0.0;
  bool held = false;
};

/// Whether the stack sustained a ladder rung. It held when nothing failed,
/// the p99 over every request of the rung is within the limit, the
/// generator kept pace, and latency did not climb through the rung: the
/// median of its last quarter exceeds that of its first by at most a
/// quarter of the limit. A backlog building under overload shows there
/// before it reaches the p99 limit. Goodput counts the replies received by
/// the rung's end plus the limit, over the time they took to arrive.
RungVerdict judge(const Phase& rung, double p99_limit_ms) {
  RungVerdict v;
  const std::size_t n = rung.recs.size();
  v.p99_ms = percentile(latencies_ms(rung), 0.99).value;
  v.growth_ms = percentile(latencies_ms(rung, n - n / 4, n), 0.5).value -
                percentile(latencies_ms(rung, 0, n / 4), 0.5).value;
  v.lag_ms = tail_lag_ms(rung);
  const std::uint64_t deadline =
      rung.t0 + static_cast<std::uint64_t>((rung.seconds + p99_limit_ms * 1e-3) * 1e9);
  std::size_t in_time = 0;
  std::uint64_t last = rung.t0;
  for (const Rec& r : rung.recs)
    if (r.ok && r.recv <= deadline) {
      ++in_time;
      last = std::max(last, r.recv);
    }
  if (last > rung.t0)
    v.goodput = static_cast<double>(in_time) / (static_cast<double>(last - rung.t0) * 1e-9);
  v.held = rung.failed == 0 && v.p99_ms <= p99_limit_ms &&
           v.growth_ms <= 0.25 * p99_limit_ms && v.lag_ms <= 1.0;
  return v;
}

// ---------------------------------------------------------- traced run

struct CoreJobProbe {
  double analyze_s = 0, plm_s = 0, anneal_iters_s = 0, rate_search_s = 0;
  double rate_search_encodes = 0, queue_wait_s = 0, checkpoints = 0, checkpoint_bytes = 0;
  double design_s = 0;
};

/// core: the design flow's stages called directly on tenant 0's sample.
/// jobs: one rate-controlled design job (target + 2-rung ladder) submitted
/// over the wire and polled to completion; its phases become spans.
CoreJobProbe probe_core_and_jobs(Stack& st, SpanLog& log, Result& result) {
  CoreJobProbe p;
  const dnj::data::Dataset& ds = st.samples.front();
  dnj::core::FrequencyProfile profile;
  p.analyze_s = static_cast<double>(time_ns([&] { profile = dnj::core::analyze(ds); })) * 1e-9;
  dnj::jpeg::QuantTable table;
  p.plm_s = static_cast<double>(time_ns([&] {
              table = dnj::core::plm_quant_table(profile, dnj::core::PlmParams::paper_defaults());
            })) * 1e-9;
  dnj::core::SaConfig sa;
  sa.iterations = 32;
  dnj::core::SaStepper stepper(ds, profile, table, sa);
  const double anneal_s = static_cast<double>(time_ns([&] { stepper.step(sa.iterations); })) * 1e-9;
  p.anneal_iters_s = sa.iterations / anneal_s;

  std::vector<const Image*> images;
  for (const dnj::data::Sample& s : ds.samples) images.push_back(&s.image);
  const dnj::jpeg::EncoderConfig base = dnj::core::custom_table_config(table);
  double mid_bytes = 0.0;
  for (const Image* img : images)
    mid_bytes += static_cast<double>(dnj::jpeg::scan_byte_count(dnj::jpeg::encode(*img, base)));
  mid_bytes /= static_cast<double>(images.size());
  dnj::jpeg::DatasetRateResult rate;
  p.rate_search_s = static_cast<double>(time_ns([&] {
                      rate = dnj::jpeg::search_dataset_quality(images, 0.8 * mid_bytes, base);
                    })) * 1e-9;
  p.rate_search_encodes = rate.encode_calls;

  // The design job over the wire.
  net::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", static_cast<std::uint16_t>(st.server->port()), &error, 60000)) {
    result.mark_incorrect("job client connect: " + error);
    return p;
  }
  dnj::jobs::DesignJobSpec spec;
  spec.dataset = ds;
  spec.tenant = "designed";
  spec.target_bytes_per_image = 0.9 * mid_bytes;
  spec.ladder = {0.7 * mid_bytes, 0.5 * mid_bytes};
  spec.sa.iterations = 64;
  const std::uint64_t trace = 1ULL << 40;
  const std::uint64_t t_submit = now_ns();
  net::WireReply rep;
  if (!client.job_submit(spec, 0, &rep, &error) || rep.status != net::WireStatus::kOk) {
    result.mark_incorrect("job submit: " + error + rep.error);
    return p;
  }
  const std::uint64_t job = rep.job_id;
  // First time each phase was seen (index = JobPhase), polled every 1 ms.
  std::uint64_t seen[6] = {0, 0, 0, 0, 0, 0};
  std::uint64_t t_running = 0;
  dnj::jobs::JobStatus status;
  for (;;) {
    if (!client.job_status(job, &rep, &error) || rep.status != net::WireStatus::kOk) {
      result.mark_incorrect("job status: " + error + rep.error);
      return p;
    }
    status = rep.job_status;
    const std::uint64_t now = now_ns();
    const int ph = static_cast<int>(status.phase);
    if (ph >= 0 && ph < 6 && seen[ph] == 0) seen[ph] = now;
    if (t_running == 0 && status.state != dnj::jobs::JobState::kQueued) t_running = now;
    if (status.state != dnj::jobs::JobState::kQueued &&
        status.state != dnj::jobs::JobState::kRunning)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (status.state != dnj::jobs::JobState::kCompleted) {
    result.mark_incorrect("design job ended " +
                          std::string(dnj::jobs::job_state_name(status.state)) + ": " +
                          status.error);
    return p;
  }
  if (!client.job_result(job, &rep, &error) || rep.status != net::WireStatus::kOk) {
    result.mark_incorrect("job result: " + error + rep.error);
    return p;
  }
  const std::uint64_t t_done = now_ns();
  p.design_s = static_cast<double>(t_done - t_submit) * 1e-9;
  p.queue_wait_s = static_cast<double>(t_running - t_submit) * 1e-9;
  p.checkpoints = status.checkpoints;
  p.checkpoint_bytes = static_cast<double>(rep.job_result.checkpoint.size());
  // The primary rate point plus one rung per ladder target.
  if (rep.job_result.rungs.size() != spec.ladder.size() + 1)
    result.mark_incorrect("design job published " + std::to_string(rep.job_result.rungs.size()) +
                          " rate points, wanted " + std::to_string(spec.ladder.size() + 1));

  const std::uint32_t root = log.add(trace, 0, "jobs.job", t_submit, t_done, job);
  const auto at = [&](dnj::jobs::JobPhase phase, std::uint64_t fallback) {
    const std::uint64_t v = seen[static_cast<int>(phase)];
    return v != 0 ? v : fallback;
  };
  const std::uint64_t a = at(dnj::jobs::JobPhase::kAnalyze, t_running);
  const std::uint64_t b = at(dnj::jobs::JobPhase::kAnneal, a);
  const std::uint64_t c = at(dnj::jobs::JobPhase::kRateSearch, b);
  const std::uint64_t d = at(dnj::jobs::JobPhase::kLadder, c);
  log.add(trace, root, "jobs.queue_wait", t_submit, t_running);
  log.add(trace, root, "core.analyze", a, b);
  log.add(trace, root, "core.anneal", b, c);
  log.add(trace, root, "core.rate_search", c, d);
  log.add(trace, root, "jobs.ladder", d, t_done);
  return p;
}

void traced_run(const Options& o, const Spec& spec, Stack& st, Result& result) {
  const double half = o.seconds / 2.0;
  std::size_t first = 0;
  Phase warm = make_phase(spec, o.seed, first, spec.nominal_rps, 0.5);
  drive(st, warm, 0);
  first += warm.recs.size();
  settle(st, warm, result, "warm-up");

  Phase plain = make_phase(spec, o.seed, first, spec.nominal_rps, half);
  drive(st, plain, 0);
  first += plain.recs.size();
  settle(st, plain, result, "untraced");
  const double p50_plain = percentile(latencies_ms(plain), 0.5).value;

  Phase traced = make_phase(spec, o.seed, first, spec.nominal_rps, half);
  const std::size_t every = std::max<std::size_t>(1, traced.recs.size() / spec.traced_ops);
  const serve::ServiceStats s0 = st.service->stats();
  drive(st, traced, every);
  const serve::ServiceStats s1 = st.service->stats();
  settle(st, traced, result, "traced");
  const double p50_traced = percentile(latencies_ms(traced), 0.5).value;

  // Span trees of the sampled requests.
  SpanLog log;
  JpegTotals jpeg_totals;
  dnj::jpeg::pipeline::CodecContext ctx;
  std::vector<double> parse_us, ser_us, residual_us, wire_bytes, queue_us, service_us;
  for (const Rec& r : traced.recs) {
    if (!r.ok) continue;
    ser_us.push_back(static_cast<double>(r.ser_ns) * 1e-3);
    residual_us.push_back(static_cast<double>(r.recv - r.send) * 1e-3 - r.queue_us -
                          r.service_us);
    wire_bytes.push_back(static_cast<double>(r.req_bytes + r.resp_bytes));
    queue_us.push_back(r.queue_us);
    service_us.push_back(r.service_us);
  }
  for (const auto& [idx, frame_bytes] : traced.captured) {
    const Rec& r = traced.recs[idx];
    const Draw& d = traced.draws[idx];
    // Server-side parse of this request's frame, replayed: feed + frame
    // extraction + request decode.
    net::Frame frame;
    serve::Request parsed;
    net::FrameParser parser;
    const std::uint64_t parse_ns = time_ns([&] {
      parser.feed(frame_bytes.data(), frame_bytes.size());
      if (parser.next(&frame) != net::ParseResult::kFrame ||
          net::parse_request(frame, &parsed) != net::WireStatus::kOk)
        result.mark_incorrect("captured request frame does not parse");
    });
    parse_us.push_back(static_cast<double>(parse_ns) * 1e-3);
    if (!r.ok) continue;

    const std::uint64_t trace = idx + 1;
    const std::uint32_t root =
        log.add(trace, 0, "request", r.due, r.recv, static_cast<std::uint64_t>(d.op));
    Cursor cur(log, trace, root, r.due, r.recv);
    cur.place("gen.lag", r.send - r.due);
    cur.place("net.serialize", r.ser_ns);
    cur.place("net.parse", parse_ns);
    cur.place("serve.queue", static_cast<std::uint64_t>(r.queue_us * 1e3));
    const std::uint32_t svc =
        cur.place("serve.service", static_cast<std::uint64_t>(r.service_us * 1e3),
                  r.cache_hit ? 1 : 0);
    if (r.cache_hit) continue;  // a cache hit runs no codec
    Cursor inner(log, trace, svc, cur.last_start(), cur.last_end());
    switch (d.op) {
      case OpKind::kDecode:
        (void)traced_decode(parsed.bytes, ctx, 1, inner, log, trace, jpeg_totals);
        break;
      case OpKind::kTranscode: {
        const Image img = traced_decode(parsed.bytes, ctx, 1, inner, log, trace, jpeg_totals);
        traced_encode(img, parsed.config, ctx, inner, log, trace, jpeg_totals);
        break;
      }
      case OpKind::kTenantEncode:
        traced_encode(parsed.image, parsed.config, ctx, inner, log, trace, jpeg_totals);
        break;
      case OpKind::kDeepn:
        traced_encode(parsed.image, st.configs[0][d.quality], ctx, inner, log, trace, jpeg_totals);
        break;
    }
  }
  report_self_times(log, {"gen", "net", "serve", "jpeg"}, "request", result);

  result.metric("net.parse_us", "us", percentile(parse_us, 0.5).value);
  result.metric("net.serialize_us", "us", percentile(ser_us, 0.5).value);
  result.metric("net.residual_us", "us", percentile(residual_us, 0.5).value);
  result.metric("net.bytes_per_op", "B", percentile(wire_bytes, 0.5).value);
  result.metric("serve.queue_us.p50", "us", percentile(queue_us, 0.5).value);
  result.metric("serve.queue_us.p99", "us", percentile(queue_us, 0.99).value);
  result.metric("serve.service_us.p50", "us", percentile(service_us, 0.5).value);
  const double completed = static_cast<double>(s1.completed - s0.completed);
  const auto ratio = [&](std::uint64_t a, std::uint64_t b) {
    return completed > 0 ? static_cast<double>(b - a) / completed : 0.0;
  };
  result.metric("serve.batch_size", "count",
      s1.batches > s0.batches ? completed / static_cast<double>(s1.batches - s0.batches) : 0.0);
  result.metric("serve.cache_hit_ratio", "ratio", ratio(s0.cache_hits, s1.cache_hits));
  if (spec.mix.unique && s1.cache_hits != s0.cache_hits)
    result.mark_incorrect("unique inputs hit the result cache");
  result.metric("serve.table_hit_ratio", "ratio", ratio(s0.table_cache_hits, s1.table_cache_hits));
  result.metric("serve.steal_ratio", "ratio", ratio(s0.steals, s1.steals));
  jpeg_totals.report(result);
  result.metric("trace.overhead_share", "ratio",
      p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain : 0.0);
  result.row("trace.p50_untraced_ms", "ms", p50_plain);
  result.row("trace.p50_traced_ms", "ms", p50_traced);

  if (st.jobs) {
    SpanLog job_log;
    const CoreJobProbe p = probe_core_and_jobs(st, job_log, result);
    result.metric("core.analyze_s", "s", p.analyze_s);
    result.metric("core.plm_s", "s", p.plm_s);
    result.metric("core.anneal_iters_s", "1/s", p.anneal_iters_s);
    result.metric("core.rate_search_s", "s", p.rate_search_s);
    result.metric("core.rate_search_encodes", "count", p.rate_search_encodes);
    result.metric("jobs.queue_wait_s", "s", p.queue_wait_s);
    result.metric("jobs.checkpoints", "count", p.checkpoints);
    result.metric("jobs.checkpoint_bytes", "B", p.checkpoint_bytes);
    result.row("jobs.design_s", "s", p.design_s);
    for (const auto& [stage, ns] : job_log.self_ns_by_stage())
      result.row("span." + stage + ".self_s", "s", ns * 1e-9);
    log.append(job_log);
  }
  const std::string path = o.out_dir + "/spans-" + o.workload + ".json";
  if (!log.write_json(path)) result.mark_incorrect("cannot write " + path);
  result.note("spans", path);
}

}  // namespace

void run_wire(const Options& o, Result& result) {
  const Spec spec = spec_for(o.workload);
  // Sleep granularity of the pacing loop: the default 50 us timer slack
  // would be the largest term of a 32x32 request's latency.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  const bool with_jobs = o.trace && o.workload == "wire_imagenet";
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  for (int k = 0; k < spec.setups; ++k) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = set_up(spec, with_jobs, o.out_dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  result.row("setup.each_s", "s", summarize(setup_s));
  result.row("server.workers", "count", static_cast<double>(st->service->config().workers));
  result.row("schedule.repeat_share", "ratio",
             repeat_share(make_schedule(spec.mix, o.seed, 0,
                                        static_cast<std::size_t>(spec.nominal_rps * o.seconds))));

  if (o.trace) {
    traced_run(o, spec, *st, result);
    return;
  }
  result.metric("setup_s", "s", median_of(setup_s));

  std::size_t first = 0;
  Phase warm = make_phase(spec, o.seed, first, spec.nominal_rps, 0.5);
  drive(*st, warm, 0);
  first += warm.recs.size();
  settle(*st, warm, result, "warm-up");

  // Nominal rate: the latency, size, CPU and memory figures. The phase's
  // records exist before the peak is restarted, and its reply payloads go
  // to the spool, so the peak grows only with the stack's own memory.
  Phase nominal = make_phase(spec, o.seed, first, spec.nominal_rps, o.seconds * 0.5);
  reset_peak_rss();
  const serve::ServiceStats s0 = st->service->stats();
  drive(*st, nominal, 0);
  const serve::ServiceStats s1 = st->service->stats();
  const double rss_mb = peak_rss_mb();
  result.row("nominal.generator_held_mb", "MB", nominal.held_mb());
  result.row("machine.steal_share", "ratio",
             steal_share(nominal.host.front().second, nominal.host.back().second));
  first += nominal.recs.size();
  settle(*st, nominal, result, "nominal");
  const std::vector<double> lat = latencies_ms(nominal);
  const std::vector<double> calm = calm_latencies_ms(nominal);
  result.row("nominal.latency_ms", "ms", summarize(lat));
  result.row("nominal.calm_latency_ms", "ms", summarize(calm));
  result.row("nominal.offered_rps", "1/s", spec.nominal_rps);
  result.row("nominal.tail_lag_ms", "ms", tail_lag_ms(nominal));
  result.row("nominal.failed", "count", static_cast<double>(nominal.failed));
  const double done = static_cast<double>(std::max<std::uint64_t>(1, s1.completed - s0.completed));
  result.row("nominal.steal_ratio", "ratio", static_cast<double>(s1.steals - s0.steals) / done);
  result.row("nominal.batch_size", "count",
             done / static_cast<double>(std::max<std::uint64_t>(1, s1.batches - s0.batches)));
  result.row("nominal.cache_hit_ratio", "ratio",
             static_cast<double>(s1.cache_hits - s0.cache_hits) / done);
  if (spec.mix.unique && s1.cache_hits != s0.cache_hits)
    result.mark_incorrect("unique inputs hit the result cache");
  if (lat.size() < min_samples_for(0.99))
    result.mark_incorrect("too few samples for p99 at the nominal rate");
  const double server_cpu_s = std::max(0.0, nominal.proc_cpu_s - nominal.gen_cpu_s);
  result.row("nominal.generator_cpu_ms_per_op", "ms",
             nominal.ok ? nominal.gen_cpu_s * 1e3 / static_cast<double>(nominal.ok) : 0.0);
  double mean_bytes = 0.0;
  for (double b : nominal.out_bytes) mean_bytes += b;
  mean_bytes /= static_cast<double>(std::max<std::size_t>(1, nominal.out_bytes.size()));

  // The fixed ladder, climbed from the bottom. A rung gets up to three
  // tries and holds if any of them held. The climb ends after two rungs in a
  // row that no try held, so one disturbance of the machine cannot end it.
  // Capacity is the goodput of the highest rung that held, 0 when none did.
  const double rung_s = o.seconds / 16.0;
  double capacity = 0.0;
  std::size_t rungs_held = 0, misses = 0;
  for (std::size_t k = 0; k < spec.ladder.size() && misses < 2; ++k) {
    ++misses;
    for (int attempt = 0; attempt < 3; ++attempt) {
      Phase rung = make_phase(spec, o.seed, first, spec.ladder[k], rung_s);
      drive(*st, rung, 0);
      first += rung.recs.size();
      settle(*st, rung, result, "ladder");
      const RungVerdict v = judge(rung, spec.p99_limit_ms);
      const std::string tag = "ladder." + std::to_string(static_cast<long long>(spec.ladder[k])) +
                              "." + std::to_string(attempt);
      result.row(tag + ".p99_ms", "ms", v.p99_ms);
      result.row(tag + ".growth_ms", "ms", v.growth_ms);
      result.row(tag + ".tail_lag_ms", "ms", v.lag_ms);
      result.row(tag + ".steal_share", "ratio",
                 steal_share(rung.host.front().second, rung.host.back().second));
      if (v.held) {
        capacity = v.goodput;
        ++rungs_held;
        misses = 0;
        break;
      }
    }
  }
  if (rungs_held == 0) result.note("capacity", "below the first ladder rung");
  result.row("rungs_held", "count", static_cast<double>(rungs_held));

  result.metric("images_per_s", "1/s", capacity);
  result.metric("p50_ms", "ms", percentile(calm, 0.5).value);
  result.metric("p99_ms", "ms", percentile(lat, 0.99).value);
  result.metric("bytes_per_image", "B", mean_bytes);
  result.metric("cpu_ms_per_op", "ms",
                nominal.ok ? server_cpu_s * 1e3 / static_cast<double>(nominal.ok) : 0.0);
  result.metric("peak_rss_mb", "MB", rss_mb);
}

}  // namespace perfbench
