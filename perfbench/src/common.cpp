#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "simd/dispatch.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM rather than ru_maxrss: reset_peak_rss() can rewind it.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

void reset_peak_rss() {
  // Free heap pages (of every malloc arena) go back to the system first, so
  // the restarted peak starts from live memory, not from what earlier
  // phases happened to leave cached.
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

HostTicks host_ticks() {
  HostTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  const unsigned long long total = to.total - from.total;
  return total == 0 ? 0.0 : static_cast<double>(to.steal - from.steal) / static_cast<double>(total);
}

double median_of(std::vector<double> values) { return percentile(std::move(values), 0.5).value; }

void Result::row(const std::string& name, const std::string& unit, const Summary& s) {
  rows_.push_back({name, unit, s});
}

void Result::row(const std::string& name, const std::string& unit, double value) {
  rows_.push_back({name, unit, Summary{value, value, value, 1}});
}

void Result::metric(const std::string& name, const std::string& unit, double value) {
  row(name, unit, value);
  metrics_.push_back({name, unit, value});
}

void Result::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Result::mark_incorrect(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  note("incorrect", why);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Result::emit() {
  std::string doc = "{\n";
  doc += "  \"workload\": \"" + json_escape(options_.workload) + "\",\n";
  doc += "  \"trace\": " + std::string(options_.trace ? "true" : "false") + ",\n";
  doc += "  \"machine\": {\"nproc\": " + std::to_string(nproc()) + ", \"simd_level\": \"" +
         dnj::simd::level_name(dnj::simd::active_level()) + "\", \"compiler\": \"" +
         json_escape(__VERSION__) + "\", \"git_sha\": \"" + json_escape(options_.git_sha) +
         "\", \"seed\": " + std::to_string(options_.seed) + "},\n";
  doc += "  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    doc += std::string(i ? ", " : "") + "\"" + json_escape(notes_[i].first) + "\": \"" +
           json_escape(notes_[i].second) + "\"";
  doc += "},\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RowData& r = rows_[i];
    doc += "    {\"name\": \"" + r.name + "\", \"unit\": \"" + r.unit +
           "\", \"median\": " + num(r.s.median) + ", \"lo\": " + num(r.s.lo) +
           ", \"hi\": " + num(r.s.hi) + ", \"n\": " + std::to_string(r.s.n) + "}" +
           (i + 1 < rows_.size() ? ",\n" : "\n");
  }
  doc += "  ]\n}\n";

  const std::string path =
      options_.out_dir + "/" + options_.workload + (options_.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  }
  std::fputs(doc.c_str(), stdout);

  std::string line = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    line += std::string(i ? ", " : "") + "\"" + metrics_[i].name + "\": {\"value\": " +
            num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  line += "}}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return correct_ && attempted_ > 0 ? 0 : 1;
}

}  // namespace perfbench
