// Self-tests of the benchmark's own machinery: percentiles with their
// sample counts, span self-time subtraction, and seeded schedules.
// Run: perfbench_selftest (exit 0 = all passed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 0.5).n == 0 && !percentile({}, 0.5).resolved, "empty input");
  check(near(percentile({3, 1, 2}, 0.5).value, 2.0), "median of 3");
  check(near(percentile({1, 2, 3, 4}, 0.5).value, 2.5), "median interpolates");
  check(near(percentile({10, 20}, 0.25).value, 12.5), "linear rank q*(n-1)");
  check(near(percentile({5}, 0.99).value, 5.0), "single sample");
  // p99 needs at least 100 samples to be a tail measurement.
  check(perfbench::min_samples_for(0.99) == 100, "min samples for p99");
  check(perfbench::min_samples_for(0.5) == 1, "min samples for median");
  std::vector<double> v99(99), v100(100);
  for (int i = 0; i < 100; ++i) v100[i] = i;
  for (int i = 0; i < 99; ++i) v99[i] = i;
  check(!percentile(v99, 0.99).resolved && percentile(v99, 0.99).n == 99, "p99 of 99 unresolved");
  check(percentile(v100, 0.99).resolved && percentile(v100, 0.99).n == 100, "p99 of 100 resolved");
  check(near(percentile(v100, 0.99).value, 98.01), "p99 of 0..99");
  const perfbench::Summary s = perfbench::summarize(v100);
  check(s.n == 100 && near(s.median, 49.5) && near(s.lo, 9.9) && near(s.hi, 89.1), "summary");
}

void test_self_time() {
  perfbench::SpanLog log;
  // root [0,100]: children [10,30] and [20,50] overlap -> cover [10,50];
  // child [90,120] is clipped to [90,100]. Root self = 100 - 40 - 10 = 50.
  const auto root = log.add(1, 0, "request", 0, 100);
  const auto a = log.add(1, root, "net.a", 10, 30);
  log.add(1, root, "serve.b", 20, 50);
  log.add(1, root, "jpeg.c", 90, 120);
  log.add(1, a, "net.d", 12, 18);  // grandchild: subtracts from a only
  const std::vector<std::uint64_t> self = log.self_ns();
  check(self[0] == 50, "root self time");
  check(self[1] == 14, "child self time minus grandchild");
  check(self[2] == 30 && self[4] == 6, "leaf self time");
  const auto by_layer = log.self_ns_by_layer();
  check(near(by_layer.at("request"), 50) && near(by_layer.at("net"), 20), "per-layer sums");
  double total = 0;
  for (std::size_t i = 0; i < 4; ++i)
    if (i != 3) total += static_cast<double>(self[i]);
  // Clipped child: its own self time is its full (unclipped) duration, but
  // the root only loses the clipped part; a Cursor never places spans past
  // the parent, so sums match exactly for laid-out trees.
  perfbench::SpanLog laid;
  const auto r = laid.add(7, 0, "request", 1000, 1100);
  perfbench::Cursor cur(laid, 7, r, 1000, 1100);
  cur.place("gen.lag", 10);
  const auto svc = cur.place("serve.service", 60);
  perfbench::Cursor inner(laid, 7, svc, cur.last_start(), cur.last_end());
  inner.place("jpeg.encode", 45);
  inner.place("jpeg.decode", 45);  // clipped to the 15 ns left in serve.service
  cur.place("net.parse", 100);     // clipped to the 30 ns left in the root
  double sum = 0;
  for (const auto& [layer, ns] : laid.self_ns_by_layer()) sum += ns;
  check(near(sum, laid.root_ns()) && near(laid.root_ns(), 100), "self times sum to the root");
  check(laid.spans()[4].end_ns == 1070, "cursor clips to the parent");
  const auto clipped = laid.clipped_ns_by_layer();
  check(clipped.size() == 2 && near(clipped.at("jpeg"), 30) && near(clipped.at("net"), 70),
        "cursor records what it clips");
  perfbench::SpanLog merged;
  merged.add(1, 0, "x", 0, 1);
  merged.append(laid);
  check(merged.spans()[2].parent == 2 && merged.spans()[2].span == 3, "append renumbers ids");
  check(near(merged.clipped_ns_by_layer().at("net"), 70), "append keeps clipped time");
  (void)total;
}

void test_schedules() {
  perfbench::Mix zipf;
  zipf.pool = 256;
  zipf.item_zipf_s = 1.0;
  zipf.tenants = 12;
  zipf.tenant_zipf_s = 1.0;
  zipf.qualities = 2;
  zipf.transcode_share = 0.15;
  zipf.decode_share = 0.1;
  const auto a = perfbench::make_schedule(zipf, 42, 0, 5000);
  const auto b = perfbench::make_schedule(zipf, 42, 0, 5000);
  const auto c = perfbench::make_schedule(zipf, 43, 0, 5000);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].op == b[i].op && a[i].item == b[i].item && a[i].tenant == b[i].tenant &&
           a[i].quality == b[i].quality && a[i].stamp == b[i].stamp;
    differs = differs || a[i].item != c[i].item || a[i].tenant != c[i].tenant;
  }
  check(same, "same seed -> same Zipf schedule");
  check(differs, "other seed -> other schedule");
  // Windows compose: draws [1000, 2000) equal the same slice of the whole.
  const auto w = perfbench::make_schedule(zipf, 42, 1000, 1000);
  bool window = true;
  for (std::size_t i = 0; i < w.size(); ++i) window = window && w[i].item == a[1000 + i].item;
  check(window, "schedule windows compose");
  // Zipf(1) over 256: item 0 is drawn ~1/H(256) = 16% of the time.
  std::size_t zero = 0;
  for (const auto& d : a) zero += d.item == 0;
  check(zero > 600 && zero < 1000, "Zipf head frequency");
  const double rep = perfbench::repeat_share(a);
  check(rep > 0.3 && rep < 1.0, "Zipf schedule repeats");
  check(perfbench::repeat_share(a) == perfbench::repeat_share(b), "repeat share deterministic");

  perfbench::Mix uniq;
  uniq.pool = 16;
  uniq.tenants = 2;
  uniq.transcode_share = 0.5;
  uniq.unique = true;
  const auto u1 = perfbench::make_schedule(uniq, 7, 0, 4000);
  const auto u2 = perfbench::make_schedule(uniq, 7, 0, 4000);
  std::set<std::uint64_t> stamps;
  bool u_same = true;
  for (std::size_t i = 0; i < u1.size(); ++i) {
    stamps.insert(u1[i].stamp);
    u_same = u_same && u1[i].stamp == u2[i].stamp && u1[i].item == u2[i].item &&
             u1[i].op == u2[i].op;
  }
  check(u_same, "same seed -> same unique schedule");
  check(stamps.size() == u1.size() && stamps.count(0) == 0, "every unique draw has its own stamp");
  check(perfbench::repeat_share(u1) == 0.0, "unique schedule never repeats");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_schedules();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
