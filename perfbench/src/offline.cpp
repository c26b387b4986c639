// offline_1080p: the gateway batch-compressing a dataset. One caller thread
// runs a closed loop of api::Codec::transcode on 1920x1080 4:2:0 JPEGs into
// DeepN tables, in process (no net, no serve). Half of the pooled inputs
// carry a restart marker per MCU row, so their decode fans out on the
// runtime pool; the other half decode as one stream.
//
// Every output is compared with memcmp against the same transcode done by
// the jpeg layer directly and serially (decode on one thread, then encode):
// by the determinism contract the two are byte-identical.
//
// The traced run times, per op, the api call (root span), then the jpeg
// decode and encode of the same input with their stages (children); the
// root's self time is the api boundary. It also times restart-marked
// decodes on one thread against the pool default.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/convert.hpp"
#include "api/dnj.hpp"
#include "data/synthetic.hpp"
#include "jpeg/decoder.hpp"
#include "layers.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = dnj::api;
using dnj::image::Image;

constexpr int kWidth = 1920, kHeight = 1080;
constexpr int kRestartMcus = kWidth / 16;  ///< one restart segment per MCU row
constexpr int kSetups = 3;  ///< set-up repetitions; setup_s is their median

struct Pool {
  std::vector<std::vector<std::uint8_t>> jpegs;  ///< even index: restart-marked
  api::EncodeOptions deepn;
  std::vector<std::vector<std::uint8_t>> expected;
};

Pool set_up() {
  Pool p;
  api::Session session;
  const api::Codec codec = session.codec();
  dnj::data::GeneratorConfig g;
  g.width = kWidth;
  g.height = kHeight;
  g.channels = 3;
  // The pool's content is fixed so bytes_per_image does not swing with it; the seed
  // picks the order the pool is walked in.
  g.seed = 0x1080D47AULL;
  const dnj::data::Dataset ds = dnj::data::SyntheticDatasetGenerator(g).generate(1);
  api::TableDesigner designer = session.designer();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Image& img = ds.samples[i].image;
    const api::ImageView view{img.data().data(), img.width(), img.height(), img.channels()};
    auto enc = codec.encode(view, api::EncodeOptions().quality(90).restart_interval(
                                      i % 2 == 0 ? kRestartMcus : 0));
    if (!enc.ok()) throw std::runtime_error("pool encode: " + enc.status().message());
    p.jpegs.push_back(std::move(enc.value()));
    designer.add(view, ds.samples[i].label);
  }
  auto design = designer.design(api::DesignOptions().sample_interval(1));
  if (!design.ok()) throw std::runtime_error("design: " + design.status().message());
  p.deepn = design.value().encode_options();
  return p;
}

/// The reference outputs: jpeg layer, serial decode then encode.
void expect(Pool& p) {
  dnj::jpeg::pipeline::CodecContext ctx;
  const dnj::jpeg::EncoderConfig cfg = api::detail::to_config(p.deepn);
  for (const auto& bytes : p.jpegs)
    p.expected.push_back(dnj::jpeg::encode(dnj::jpeg::decode(bytes, ctx, 1), cfg, ctx));
}

/// Pool index of op k: the pool walked in a seeded order, again and again.
std::vector<std::size_t> order(std::size_t pool, std::uint64_t seed) {
  std::vector<std::size_t> perm(pool);
  for (std::size_t i = 0; i < pool; ++i) perm[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = pool; i > 1; --i)
    std::swap(perm[i - 1], perm[splitmix64(state) % i]);
  return perm;
}

struct Loop {
  std::vector<double> ms;
  std::vector<double> bytes;
  double wall_s = 0.0, cpu_s = 0.0;
  std::size_t mismatches = 0;
};

/// Closed loop for `seconds` (at least `min_ops` ops). `per_op` runs after
/// each op, outside its timing, with (item, start_ns, end_ns).
template <typename PerOp>
Loop run_loop(const Pool& p, const api::Codec& codec, const std::vector<std::size_t>& perm,
              std::size_t& k, double seconds, std::size_t min_ops, PerOp&& per_op) {
  Loop l;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t_begin = now_ns();
  std::uint64_t busy_ns = 0;
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  while (busy_ns < budget || l.ms.size() < min_ops) {
    const std::size_t item = perm[k++ % perm.size()];
    const std::uint64_t t0 = now_ns();
    auto out = codec.transcode(p.jpegs[item], p.deepn);
    const std::uint64_t t1 = now_ns();
    busy_ns += t1 - t0;
    l.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    const std::vector<std::uint8_t>& want = p.expected[item];
    if (!out.ok() || out.value().size() != want.size() ||
        std::memcmp(out.value().data(), want.data(), want.size()) != 0) {
      ++l.mismatches;
    } else {
      l.bytes.push_back(static_cast<double>(want.size()));
    }
    per_op(item, t0, t1);
  }
  l.wall_s = static_cast<double>(now_ns() - t_begin) * 1e-9;
  l.cpu_s = process_cpu_s() - cpu0;
  return l;
}

void book(const Loop& l, Result& result) {
  result.add_ops(l.ms.size(), l.mismatches);
  if (l.mismatches > 0)
    result.mark_incorrect(std::to_string(l.mismatches) +
                          " transcode output(s) differ from the serial jpeg-layer reference");
}

}  // namespace

void run_offline(const Options& o, Result& result) {
  std::vector<double> setup_s;
  Pool pool;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    pool = set_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  expect(pool);
  result.row("setup.each_s", "s", summarize(setup_s));

  api::Session session;
  const api::Codec codec = session.codec();
  const std::vector<std::size_t> perm = order(pool.jpegs.size(), o.seed);
  std::size_t k = 0;
  const auto none = [](std::size_t, std::uint64_t, std::uint64_t) {};
  book(run_loop(pool, codec, perm, k, 0.3, 2, none), result);  // warm-up

  if (!o.trace) {
    reset_peak_rss();
    const HostTicks h0 = host_ticks();
    const Loop l = run_loop(pool, codec, perm, k, o.seconds, 2 * pool.jpegs.size(), none);
    const double rss_mb = peak_rss_mb();
    result.row("machine.steal_share", "ratio", steal_share(h0, host_ticks()));
    book(l, result);
    result.row("transcode_ms", "ms", summarize(l.ms));
    double mean_bytes = 0.0;
    for (double b : l.bytes) mean_bytes += b;
    mean_bytes /= static_cast<double>(std::max<std::size_t>(1, l.bytes.size()));
    const double n = static_cast<double>(l.ms.size());
    result.metric("setup_s", "s", median_of(setup_s));
    result.metric("images_per_s", "1/s", n / l.wall_s);
    result.metric("p50_ms", "ms", percentile(l.ms, 0.5).value);
    result.metric("p99_ms", "ms", percentile(l.ms, 0.99).value);
    result.metric("bytes_per_image", "B", mean_bytes);
    result.metric("cpu_ms_per_op", "ms", l.cpu_s * 1e3 / n);
    result.metric("peak_rss_mb", "MB", rss_mb);
    return;
  }

  // Traced run: untraced half, then a traced half whose ops are followed
  // by the layer replays on the same input.
  const Loop plain = run_loop(pool, codec, perm, k, o.seconds / 2.0, pool.jpegs.size(), none);
  book(plain, result);

  SpanLog log;
  JpegTotals jpeg_totals;
  dnj::jpeg::pipeline::CodecContext ctx;
  const dnj::jpeg::EncoderConfig cfg = api::detail::to_config(pool.deepn);
  std::vector<double> boundary_us;
  std::uint64_t serial_ns = 0, pooled_ns = 0;
  std::uint64_t trace = 0;
  const auto replay = [&](std::size_t item, std::uint64_t t0, std::uint64_t t1) {
    ++trace;
    const std::uint32_t root = log.add(trace, 0, "api.transcode", t0, t1, item);
    Cursor cur(log, trace, root, t0, t1);
    const std::size_t first_span = log.size();
    const Image img = traced_decode(pool.jpegs[item], ctx, 0, cur, log, trace, jpeg_totals);
    traced_encode(img, cfg, ctx, cur, log, trace, jpeg_totals);
    std::uint64_t children = 0;
    for (std::size_t s = first_span; s < log.size(); ++s)
      if (log.spans()[s].parent == root)
        children += log.spans()[s].end_ns - log.spans()[s].start_ns;
    boundary_us.push_back(static_cast<double>((t1 - t0) - children) * 1e-3);
    if (item % 2 == 0) {
      serial_ns += time_ns([&] { (void)dnj::jpeg::decode(pool.jpegs[item], ctx, 1); });
      pooled_ns += time_ns([&] { (void)dnj::jpeg::decode(pool.jpegs[item], ctx, 0); });
    }
  };
  const Loop traced = run_loop(pool, codec, perm, k, o.seconds / 2.0, pool.jpegs.size(), replay);
  book(traced, result);

  report_self_times(log, {"jpeg"}, "api.transcode", result);
  jpeg_totals.report(result);
  result.metric("api.boundary_us", "us", percentile(boundary_us, 0.5).value);
  result.metric("runtime.restart_decode_speedup", "ratio",
                pooled_ns > 0 ? static_cast<double>(serial_ns) / static_cast<double>(pooled_ns)
                              : 0.0);
  const double p50_plain = percentile(plain.ms, 0.5).value;
  const double p50_traced = percentile(traced.ms, 0.5).value;
  result.metric("trace.overhead_share", "ratio",
                p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain : 0.0);
  result.row("trace.p50_untraced_ms", "ms", p50_plain);
  result.row("trace.p50_traced_ms", "ms", p50_traced);
  const std::string path = o.out_dir + "/spans-" + o.workload + ".json";
  if (!log.write_json(path)) result.mark_incorrect("cannot write " + path);
  result.note("spans", path);
}

}  // namespace perfbench
