#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t SpanLog::add(std::uint64_t trace, std::uint32_t parent, const std::string& stage,
                           std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t tag,
                           std::uint32_t thread) {
  Span s;
  s.trace = trace;
  s.span = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.stage = stage;
  s.thread = thread;
  s.start_ns = start_ns;
  s.end_ns = std::max(end_ns, start_ns);
  s.tag = tag;
  spans_.push_back(std::move(s));
  return spans_.back().span;
}

void SpanLog::append(const SpanLog& other) {
  const std::uint32_t offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.span += offset;
    if (s.parent != 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
  for (const auto& [stage, ns] : other.clipped_ns_) clipped_ns_[stage] += ns;
}

std::vector<std::uint64_t> SpanLog::self_ns() const {
  // Children grouped by parent id (ids are 1-based positions).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent != 0 && s.parent <= spans_.size())
      kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, p.start_ns, p.end_ns);
      hi = std::clamp(hi, p.start_ns, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SpanLog::self_ns_by_stage() const {
  const std::vector<std::uint64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].stage] += static_cast<double>(self[i]);
  return out;
}

std::map<std::string, double> SpanLog::self_ns_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [stage, ns] : self_ns_by_stage())
    out[stage.substr(0, stage.find('.'))] += ns;
  return out;
}

double SpanLog::root_ns() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent == 0) total += static_cast<double>(s.end_ns - s.start_ns);
  return total;
}

std::map<std::string, double> SpanLog::clipped_ns_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [stage, ns] : clipped_ns_) out[stage.substr(0, stage.find('.'))] += ns;
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"clock\": \"steady_ns\", \"sample_every\": 1, \"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"trace\": %llu, \"span\": %u, \"parent\": %u, \"stage\": \"%s\", "
                 "\"thread\": %u, \"start_ns\": %llu, \"end_ns\": %llu, \"tag\": %llu}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.trace), s.span,
                 s.parent, s.stage.c_str(), s.thread,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.tag));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::uint32_t Cursor::place(const std::string& stage, std::uint64_t dur_ns, std::uint64_t tag) {
  last_start_ = at_;
  const std::uint64_t end = std::min(at_ + dur_ns, end_);
  if (at_ + dur_ns > end) log_.add_clipped(stage, at_ + dur_ns - std::max(at_, end));
  const std::uint32_t id = log_.add(trace_, parent_, stage, at_, end, tag);
  at_ = std::max(at_, end);
  return id;
}

}  // namespace perfbench
