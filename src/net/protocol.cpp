#include "net/protocol.hpp"

#include <array>
#include <cstring>

#include "api/status.hpp"
#include "serve/digest.hpp"

namespace dnj::net {

// The wire status byte is defined to mirror the public API's StatusCode
// value-for-value on 0..5, so a wire status a foreign client logs and a
// dnj_status_t an embedder logs agree without a translation table.
static_assert(static_cast<int>(WireStatus::kOk) == static_cast<int>(api::StatusCode::kOk));
static_assert(static_cast<int>(WireStatus::kInvalidArgument) ==
              static_cast<int>(api::StatusCode::kInvalidArgument));
static_assert(static_cast<int>(WireStatus::kDecodeError) ==
              static_cast<int>(api::StatusCode::kDecodeError));
static_assert(static_cast<int>(WireStatus::kRejected) ==
              static_cast<int>(api::StatusCode::kRejected));
static_assert(static_cast<int>(WireStatus::kShutdown) ==
              static_cast<int>(api::StatusCode::kShutdown));
static_assert(static_cast<int>(WireStatus::kInternal) ==
              static_cast<int>(api::StatusCode::kInternal));

namespace {

/// Forward-only reader over a payload with explicit bounds checks: every
/// parse path below either consumes exactly what the spec says or reports
/// a typed failure — no reads past the end, ever.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  bool take(std::size_t n, const std::uint8_t** out) {
    if (left < n) return false;
    *out = p;
    p += n;
    left -= n;
    return true;
  }
  bool u8(std::uint8_t* v) {
    const std::uint8_t* q;
    if (!take(1, &q)) return false;
    *v = *q;
    return true;
  }
  bool u32(std::uint32_t* v) {
    const std::uint8_t* q;
    if (!take(4, &q)) return false;
    *v = read_u32(q);
    return true;
  }
  bool u64(std::uint64_t* v) {
    const std::uint8_t* q;
    if (!take(8, &q)) return false;
    *v = read_u64(q);
    return true;
  }
  bool f64(double* v);  // defined after read_f64
};

void append_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

double read_f64(const std::uint8_t* p) {
  const std::uint64_t bits = read_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Cursor::f64(double* v) {
  const std::uint8_t* q;
  if (!take(8, &q)) return false;
  *v = read_f64(q);
  return true;
}

void append_table(std::vector<std::uint8_t>& out, const jpeg::QuantTable& table) {
  for (int i = 0; i < 64; ++i) append_u16(out, table.step(i));
}

bool parse_table(Cursor& c, jpeg::QuantTable* out) {
  const std::uint8_t* steps;
  if (!c.take(128, &steps)) return false;
  std::array<std::uint16_t, 64> natural;
  for (int i = 0; i < 64; ++i)
    natural[static_cast<std::size_t>(i)] = read_u16(steps + 2 * i);
  *out = jpeg::QuantTable(natural);
  return true;
}

// Wire-level sanity caps for job-submit counts. Semantic validation (the
// schedule, the rate targets) belongs to JobManager::submit; these only
// keep a hostile count field from dominating the parse.
constexpr std::uint32_t kMaxTenantLen = 1024;
constexpr std::uint32_t kMaxLadderRungs = 64;
constexpr std::uint32_t kMaxJobClasses = 4096;

void append_image(const image::Image& img, std::vector<std::uint8_t>& out) {
  append_u32(out, static_cast<std::uint32_t>(img.width()));
  append_u32(out, static_cast<std::uint32_t>(img.height()));
  append_u32(out, static_cast<std::uint32_t>(img.channels()));
  out.insert(out.end(), img.data().begin(), img.data().end());
}

/// Parses the image block. Truncation/excess is kMalformed; out-of-range
/// geometry is kInvalidArgument (the structural read is still sound —
/// width/height/channels are read before the pixel count is trusted).
WireStatus parse_image(Cursor& c, bool must_consume_all, image::Image* out) {
  std::uint32_t w = 0, h = 0, ch = 0;
  if (!c.u32(&w) || !c.u32(&h) || !c.u32(&ch)) return WireStatus::kMalformed;
  if (w < 1 || w > 65535 || h < 1 || h > 65535) return WireStatus::kInvalidArgument;
  if (ch != 1 && ch != 3) return WireStatus::kInvalidArgument;
  const std::size_t bytes = std::size_t{w} * h * ch;
  const std::uint8_t* px;
  if (!c.take(bytes, &px)) return WireStatus::kMalformed;
  if (must_consume_all && c.left != 0) return WireStatus::kMalformed;
  *out = image::Image(static_cast<int>(w), static_cast<int>(h), static_cast<int>(ch),
                      std::vector<std::uint8_t>(px, px + bytes));
  return WireStatus::kOk;
}

WireStatus parse_options(Cursor& c, jpeg::EncoderConfig* out) {
  std::uint32_t quality = 0, restart = 0, comment_len = 0;
  std::uint8_t custom = 0, subsampling = 0, optimize = 0, reserved = 0;
  if (!c.u32(&quality) || !c.u8(&custom) || !c.u8(&subsampling) || !c.u8(&optimize) ||
      !c.u8(&reserved) || !c.u32(&restart) || !c.u32(&comment_len))
    return WireStatus::kMalformed;
  if (custom > 1 || subsampling > 1 || optimize > 1 || reserved != 0)
    return WireStatus::kMalformed;
  const std::uint8_t* comment;
  if (!c.take(comment_len, &comment)) return WireStatus::kMalformed;

  jpeg::EncoderConfig cfg;
  cfg.quality = static_cast<int>(quality);
  cfg.use_custom_tables = custom != 0;
  cfg.subsampling = subsampling == 0 ? jpeg::Subsampling::k444 : jpeg::Subsampling::k420;
  cfg.optimize_huffman = optimize != 0;
  cfg.restart_interval = static_cast<int>(restart);
  cfg.comment.assign(reinterpret_cast<const char*>(comment), comment_len);
  if (custom) {
    const std::uint8_t* steps;
    std::array<std::uint16_t, 64> natural;
    if (!c.take(128, &steps)) return WireStatus::kMalformed;
    for (int i = 0; i < 64; ++i) natural[static_cast<std::size_t>(i)] = read_u16(steps + 2 * i);
    cfg.luma_table = jpeg::QuantTable(natural);
    if (!c.take(128, &steps)) return WireStatus::kMalformed;
    for (int i = 0; i < 64; ++i) natural[static_cast<std::size_t>(i)] = read_u16(steps + 2 * i);
    cfg.chroma_table = jpeg::QuantTable(natural);
  }
  // Range validation after the structural read so a truncated frame is
  // always kMalformed, never misreported as a bad argument.
  if (cfg.quality < 1 || cfg.quality > 100) return WireStatus::kInvalidArgument;
  if (static_cast<std::int32_t>(restart) < 0) return WireStatus::kInvalidArgument;
  *out = cfg;
  return WireStatus::kOk;
}

WireStatus wire_status_from_serve(serve::Status s) {
  switch (s) {
    case serve::Status::kOk: return WireStatus::kOk;
    case serve::Status::kRejected: return WireStatus::kRejected;
    case serve::Status::kShutdown: return WireStatus::kShutdown;
    case serve::Status::kError: break;
  }
  return WireStatus::kInternal;
}

/// The wire digest hash: textbook FNV-1a 64 with the standard offset
/// basis, NOT serve::fnv1a (whose seed is an internal constant free to
/// change). A foreign client must be able to reproduce this from the
/// published parameters alone.
std::uint64_t wire_fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

Op op_from_kind(serve::RequestKind kind) {
  switch (kind) {
    case serve::RequestKind::kEncode: return Op::kEncode;
    case serve::RequestKind::kDecode: return Op::kDecode;
    case serve::RequestKind::kTranscode: return Op::kTranscode;
    case serve::RequestKind::kDeepnEncode: return Op::kDeepnEncode;
    case serve::RequestKind::kInfer: return Op::kInfer;
  }
  return Op::kPing;
}

}  // namespace

void append_options(const jpeg::EncoderConfig& config, std::vector<std::uint8_t>& out) {
  append_u32(out, static_cast<std::uint32_t>(config.quality));
  append_u8(out, config.use_custom_tables ? 1 : 0);
  append_u8(out, config.subsampling == jpeg::Subsampling::k444 ? 0 : 1);
  append_u8(out, config.optimize_huffman ? 1 : 0);
  append_u8(out, 0);  // reserved
  append_u32(out, static_cast<std::uint32_t>(config.restart_interval));
  append_u32(out, static_cast<std::uint32_t>(config.comment.size()));
  out.insert(out.end(), config.comment.begin(), config.comment.end());
  if (config.use_custom_tables) {
    for (int i = 0; i < 64; ++i) append_u16(out, config.luma_table.step(i));
    for (int i = 0; i < 64; ++i) append_u16(out, config.chroma_table.step(i));
  }
}

std::uint64_t wire_config_digest(const serve::Request& req) {
  // Digest of the payload's options section only — recomputable by the
  // receiver from the bytes it just parsed, independent of any in-process
  // digest scheme (which may evolve freely behind the API).
  static thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  switch (req.kind) {
    case serve::RequestKind::kEncode:
    case serve::RequestKind::kTranscode:
      append_options(req.config, scratch);
      break;
    case serve::RequestKind::kDeepnEncode:
      append_u32(scratch, static_cast<std::uint32_t>(req.quality));
      break;
    case serve::RequestKind::kDecode:
    case serve::RequestKind::kInfer:
      return 0;
  }
  return wire_fnv1a(scratch.data(), scratch.size());
}

Frame make_request(std::uint32_t request_id, const serve::Request& req) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = op_from_kind(req.kind);
  f.request_id = request_id;
  f.config_digest = wire_config_digest(req);
  switch (req.kind) {
    case serve::RequestKind::kEncode:
      append_options(req.config, f.payload);
      append_image(req.image, f.payload);
      break;
    case serve::RequestKind::kDecode:
    case serve::RequestKind::kInfer:
      f.payload = req.bytes;
      break;
    case serve::RequestKind::kTranscode:
      append_options(req.config, f.payload);
      f.payload.insert(f.payload.end(), req.bytes.begin(), req.bytes.end());
      break;
    case serve::RequestKind::kDeepnEncode:
      append_u32(f.payload, static_cast<std::uint32_t>(req.quality));
      append_image(req.image, f.payload);
      break;
  }
  return f;
}

Frame make_ping(std::uint32_t request_id) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = Op::kPing;
  f.request_id = request_id;
  return f;
}

Frame make_stats_request(std::uint32_t request_id, StatsFormat format) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = Op::kStats;
  f.request_id = request_id;
  append_u8(f.payload, static_cast<std::uint8_t>(format));
  return f;
}

Frame make_stats_response(std::uint32_t request_id, const std::string& text) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kStats;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  f.payload.assign(text.begin(), text.end());
  return f;
}

WireStatus parse_request(const Frame& frame, serve::Request* out) {
  if (frame.type != FrameType::kRequest) return WireStatus::kMalformed;
  Cursor c{frame.payload.data(), frame.payload.size()};
  serve::Request req;
  switch (frame.op) {
    case Op::kPing:
      if (c.left != 0) return WireStatus::kMalformed;
      if (frame.config_digest != 0) return WireStatus::kMalformed;
      return WireStatus::kOk;
    case Op::kStats: {
      // Admin scrape: exactly one format byte, no options -> digest 0.
      if (frame.config_digest != 0) return WireStatus::kMalformed;
      std::uint8_t format = 0;
      if (!c.u8(&format) || c.left != 0) return WireStatus::kMalformed;
      if (format > static_cast<std::uint8_t>(StatsFormat::kTraceJson))
        return WireStatus::kInvalidArgument;
      return WireStatus::kOk;
    }
    case Op::kJobSubmit:
    case Op::kJobStatus:
    case Op::kJobCancel:
    case Op::kJobResult:
      // Answered on the loop thread; parse_job_submit/parse_job_id_request
      // do the payload validation there.
      return WireStatus::kOk;
    case Op::kEncode:
    case Op::kTranscode: {
      req.kind = frame.op == Op::kEncode ? serve::RequestKind::kEncode
                                         : serve::RequestKind::kTranscode;
      const std::uint8_t* options_begin = c.p;
      if (WireStatus s = parse_options(c, &req.config); s != WireStatus::kOk) return s;
      // The header digest covers exactly the options section; a mismatch
      // means the header and payload disagree about what computation this
      // is — corrupt or miscomposed, either way malformed.
      if (frame.config_digest !=
          wire_fnv1a(options_begin, static_cast<std::size_t>(c.p - options_begin)))
        return WireStatus::kMalformed;
      if (frame.op == Op::kEncode) {
        if (WireStatus s = parse_image(c, /*must_consume_all=*/true, &req.image);
            s != WireStatus::kOk)
          return s;
      } else {
        if (c.left == 0) return WireStatus::kInvalidArgument;
        req.bytes.assign(c.p, c.p + c.left);
      }
      break;
    }
    case Op::kDecode:
    case Op::kInfer:
      req.kind = frame.op == Op::kDecode ? serve::RequestKind::kDecode
                                         : serve::RequestKind::kInfer;
      if (frame.config_digest != 0) return WireStatus::kMalformed;
      if (c.left == 0) return WireStatus::kInvalidArgument;
      req.bytes.assign(c.p, c.p + c.left);
      break;
    case Op::kDeepnEncode: {
      req.kind = serve::RequestKind::kDeepnEncode;
      const std::uint8_t* quality_begin = c.p;
      std::uint32_t quality = 0;
      if (!c.u32(&quality)) return WireStatus::kMalformed;
      if (frame.config_digest != wire_fnv1a(quality_begin, 4))
        return WireStatus::kMalformed;
      if (quality < 1 || quality > 100) return WireStatus::kInvalidArgument;
      req.quality = static_cast<int>(quality);
      if (WireStatus s = parse_image(c, /*must_consume_all=*/true, &req.image);
          s != WireStatus::kOk)
        return s;
      break;
    }
    default:
      return WireStatus::kMalformed;
  }
  *out = std::move(req);
  return WireStatus::kOk;
}

Frame make_response(std::uint32_t request_id, Op op, std::uint64_t config_digest,
                    const serve::Response& resp) {
  const WireStatus status = wire_status_from_serve(resp.status);
  if (status != WireStatus::kOk) return make_error(request_id, op, status, resp.error);

  Frame f;
  f.type = FrameType::kResponse;
  f.op = op;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  f.config_digest = config_digest;
  // Observability block (24 bytes, fixed): scheduling facts only — the
  // determinism contract starts at the byte after this block. The u32 at
  // offset 4 is the batch_size slot: always 1, since every request is
  // served on its own, and kept so the block's layout stays fixed.
  append_u8(f.payload, resp.cache_hit ? 1 : 0);
  append_u8(f.payload, 0);
  append_u8(f.payload, 0);
  append_u8(f.payload, 0);
  append_u32(f.payload, 1);
  append_f64(f.payload, resp.queue_us);
  append_f64(f.payload, resp.service_us);
  switch (op) {
    case Op::kEncode:
    case Op::kTranscode:
    case Op::kDeepnEncode:
      f.payload.insert(f.payload.end(), resp.bytes.begin(), resp.bytes.end());
      break;
    case Op::kDecode:
      append_image(resp.image, f.payload);
      break;
    case Op::kInfer: {
      append_u32(f.payload, static_cast<std::uint32_t>(resp.probs.size()));
      for (float p : resp.probs) {
        std::uint32_t bits;
        std::memcpy(&bits, &p, sizeof(bits));
        append_u32(f.payload, bits);
      }
      break;
    }
    case Op::kPing:
    case Op::kStats:       // built by make_stats_response; never via the service
    case Op::kJobSubmit:   // job responses are built by make_job_*_response;
    case Op::kJobStatus:   // they never travel through the service queue
    case Op::kJobCancel:
    case Op::kJobResult:
      break;
  }
  return f;
}

Frame make_error(std::uint32_t request_id, Op op, WireStatus status,
                 const std::string& message) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = op;
  f.status = static_cast<std::uint8_t>(status);
  f.request_id = request_id;
  f.payload.assign(message.begin(), message.end());
  return f;
}

bool parse_response(const Frame& frame, WireReply* out) {
  if (frame.type != FrameType::kResponse) return false;
  WireReply r;
  r.status = static_cast<WireStatus>(frame.status);
  r.op = frame.op;
  r.request_id = frame.request_id;
  if (r.status != WireStatus::kOk) {
    r.error.assign(frame.payload.begin(), frame.payload.end());
    *out = std::move(r);
    return true;
  }
  Cursor c{frame.payload.data(), frame.payload.size()};
  // Ping has no payload, a stats response is bare text, and job responses
  // never touch the service queue — none carry the observability block.
  if (frame.op != Op::kPing && frame.op != Op::kStats && !op_is_job(frame.op)) {
    const std::uint8_t* obs;
    if (!c.take(kObservabilitySize, &obs)) return false;
    r.cache_hit = obs[0] != 0;  // obs + 4: the constant batch_size slot
    r.queue_us = read_f64(obs + 8);
    r.service_us = read_f64(obs + 16);
  }
  switch (frame.op) {
    case Op::kPing:
      if (c.left != 0) return false;
      break;
    case Op::kEncode:
    case Op::kTranscode:
    case Op::kDeepnEncode:
    case Op::kStats:  // rendered UTF-8 text rides in `bytes`
      r.bytes.assign(c.p, c.p + c.left);
      break;
    case Op::kDecode:
      if (parse_image(c, /*must_consume_all=*/true, &r.image) != WireStatus::kOk)
        return false;
      break;
    case Op::kInfer: {
      std::uint32_t count = 0;
      if (!c.u32(&count)) return false;
      const std::uint8_t* data;
      if (!c.take(std::size_t{count} * 4, &data) || c.left != 0) return false;
      r.probs.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t bits = read_u32(data + 4 * i);
        std::memcpy(&r.probs[i], &bits, sizeof(float));
      }
      break;
    }
    case Op::kJobSubmit:
      if (!c.u64(&r.job_id) || c.left != 0) return false;
      break;
    case Op::kJobCancel:
      if (c.left != 0) return false;
      break;
    case Op::kJobStatus: {
      jobs::JobStatus& js = r.job_status;
      std::uint8_t state = 0, phase = 0;
      const std::uint8_t* reserved;
      std::uint32_t error_len = 0;
      if (!c.u64(&js.id) || !c.u8(&state) || !c.u8(&phase) || !c.take(2, &reserved) ||
          !c.u32(&js.sa_iteration) || !c.u32(&js.sa_total) || !c.u32(&js.checkpoints) ||
          !c.u32(&js.rungs) || !c.f64(&js.progress) || !c.f64(&js.target_bytes) ||
          !c.f64(&js.achieved_bytes) || !c.f64(&js.rate_error) || !c.u32(&error_len))
        return false;
      if (state >= jobs::kNumJobStates ||
          phase > static_cast<std::uint8_t>(jobs::JobPhase::kDone))
        return false;
      js.state = static_cast<jobs::JobState>(state);
      js.phase = static_cast<jobs::JobPhase>(phase);
      const std::uint8_t* msg;
      if (!c.take(error_len, &msg) || c.left != 0) return false;
      js.error.assign(reinterpret_cast<const char*>(msg), error_len);
      break;
    }
    case Op::kJobResult: {
      jobs::JobResult& jr = r.job_result;
      std::uint32_t quality = 0, iterations = 0, accepted = 0, reserved = 0;
      std::uint32_t rung_count = 0, checkpoint_len = 0;
      if (!c.u64(&jr.id) || !c.u32(&quality) || !c.u32(&iterations) ||
          !c.u32(&accepted) || !c.u32(&reserved) || !c.f64(&jr.target_bytes) ||
          !c.f64(&jr.achieved_bytes) || !c.f64(&jr.initial_cost) ||
          !c.f64(&jr.best_cost) || !parse_table(c, &jr.table) || !c.u32(&rung_count))
        return false;
      jr.quality = static_cast<int>(quality);
      jr.sa_iterations = iterations;
      jr.accepted_moves = static_cast<int>(accepted);
      jr.rungs.clear();
      jr.rungs.reserve(rung_count > 256 ? 0 : rung_count);
      for (std::uint32_t i = 0; i < rung_count; ++i) {
        jobs::LadderRung rung;
        std::uint32_t name_len = 0, rung_quality = 0;
        const std::uint8_t* name;
        if (!c.u32(&name_len) || !c.take(name_len, &name) || !c.u64(&rung.version) ||
            !c.u32(&rung_quality) || !c.f64(&rung.target_bytes) ||
            !c.f64(&rung.achieved_bytes))
          return false;
        rung.name.assign(reinterpret_cast<const char*>(name), name_len);
        rung.quality = static_cast<int>(rung_quality);
        jr.rungs.push_back(std::move(rung));
      }
      const std::uint8_t* ckpt;
      if (!c.u32(&checkpoint_len) || !c.take(checkpoint_len, &ckpt) || c.left != 0)
        return false;
      jr.checkpoint.assign(ckpt, ckpt + checkpoint_len);
      break;
    }
    default:
      return false;
  }
  *out = std::move(r);
  return true;
}

// ----------------------------------------------------------- job ops (v3)

Frame make_job_submit(std::uint32_t request_id, std::uint64_t requested_job_id,
                      const jobs::DesignJobSpec& spec) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = Op::kJobSubmit;
  f.request_id = request_id;
  std::vector<std::uint8_t>& p = f.payload;
  append_u64(p, requested_job_id);
  append_u32(p, static_cast<std::uint32_t>(spec.tenant.size()));
  p.insert(p.end(), spec.tenant.begin(), spec.tenant.end());
  append_f64(p, spec.target_bytes_per_image);
  append_u32(p, static_cast<std::uint32_t>(spec.ladder.size()));
  for (double target : spec.ladder) append_f64(p, target);
  append_u32(p, static_cast<std::uint32_t>(spec.sa.iterations));
  append_f64(p, spec.sa.t_start);
  append_f64(p, spec.sa.t_end);
  append_f64(p, spec.sa.lambda);
  append_u32(p, static_cast<std::uint32_t>(spec.sa.max_step));
  append_u32(p, static_cast<std::uint32_t>(spec.sa.sample_images));
  append_u64(p, spec.sa.seed);
  append_u32(p, static_cast<std::uint32_t>(spec.sample_interval));
  append_u32(p, static_cast<std::uint32_t>(spec.anneal_limit));
  append_u64(p, static_cast<std::uint64_t>(spec.quota_bytes));
  append_u32(p, static_cast<std::uint32_t>(spec.checkpoint.size()));
  p.insert(p.end(), spec.checkpoint.begin(), spec.checkpoint.end());
  append_u32(p, static_cast<std::uint32_t>(spec.dataset.num_classes));
  append_u32(p, static_cast<std::uint32_t>(spec.dataset.size()));
  for (const data::Sample& s : spec.dataset.samples) {
    append_u32(p, static_cast<std::uint32_t>(s.label));
    append_image(s.image, p);
  }
  return f;
}

WireStatus parse_job_submit(const Frame& frame, std::uint64_t* requested_job_id,
                            jobs::DesignJobSpec* spec) {
  if (frame.type != FrameType::kRequest || frame.op != Op::kJobSubmit)
    return WireStatus::kMalformed;
  if (frame.config_digest != 0) return WireStatus::kMalformed;
  Cursor c{frame.payload.data(), frame.payload.size()};
  jobs::DesignJobSpec out;
  std::uint64_t id = 0;
  std::uint32_t tenant_len = 0;
  if (!c.u64(&id) || !c.u32(&tenant_len)) return WireStatus::kMalformed;
  const std::uint8_t* tenant;
  if (!c.take(tenant_len, &tenant)) return WireStatus::kMalformed;
  if (tenant_len == 0 || tenant_len > kMaxTenantLen) return WireStatus::kInvalidArgument;
  out.tenant.assign(reinterpret_cast<const char*>(tenant), tenant_len);
  std::uint32_t ladder_count = 0;
  if (!c.f64(&out.target_bytes_per_image) || !c.u32(&ladder_count))
    return WireStatus::kMalformed;
  if (ladder_count > kMaxLadderRungs) return WireStatus::kInvalidArgument;
  out.ladder.resize(ladder_count);
  for (std::uint32_t i = 0; i < ladder_count; ++i)
    if (!c.f64(&out.ladder[i])) return WireStatus::kMalformed;
  std::uint32_t iterations = 0, max_step = 0, sample_images = 0;
  std::uint32_t sample_interval = 0, anneal_limit = 0, checkpoint_len = 0;
  std::uint64_t quota = 0;
  if (!c.u32(&iterations) || !c.f64(&out.sa.t_start) || !c.f64(&out.sa.t_end) ||
      !c.f64(&out.sa.lambda) || !c.u32(&max_step) || !c.u32(&sample_images) ||
      !c.u64(&out.sa.seed) || !c.u32(&sample_interval) || !c.u32(&anneal_limit) ||
      !c.u64(&quota) || !c.u32(&checkpoint_len))
    return WireStatus::kMalformed;
  out.sa.iterations = static_cast<int>(iterations);
  out.sa.max_step = static_cast<int>(max_step);
  out.sa.sample_images = static_cast<int>(sample_images);
  out.sample_interval = static_cast<int>(sample_interval);
  out.anneal_limit = static_cast<int>(anneal_limit);
  out.quota_bytes = static_cast<std::size_t>(quota);
  const std::uint8_t* ckpt;
  if (!c.take(checkpoint_len, &ckpt)) return WireStatus::kMalformed;
  out.checkpoint.assign(ckpt, ckpt + checkpoint_len);
  std::uint32_t num_classes = 0, image_count = 0;
  if (!c.u32(&num_classes) || !c.u32(&image_count)) return WireStatus::kMalformed;
  if (num_classes < 1 || num_classes > kMaxJobClasses) return WireStatus::kInvalidArgument;
  if (image_count < 1) return WireStatus::kInvalidArgument;
  out.dataset.num_classes = static_cast<int>(num_classes);
  out.dataset.samples.reserve(image_count);
  for (std::uint32_t i = 0; i < image_count; ++i) {
    data::Sample s;
    std::uint32_t label = 0;
    if (!c.u32(&label)) return WireStatus::kMalformed;
    const bool last = i + 1 == image_count;
    if (WireStatus st = parse_image(c, /*must_consume_all=*/last, &s.image);
        st != WireStatus::kOk)
      return st;
    if (label >= num_classes) return WireStatus::kInvalidArgument;
    s.label = static_cast<int>(label);
    out.dataset.samples.push_back(std::move(s));
  }
  *requested_job_id = id;
  *spec = std::move(out);
  return WireStatus::kOk;
}

Frame make_job_id_request(std::uint32_t request_id, Op op, std::uint64_t job_id) {
  Frame f;
  f.type = FrameType::kRequest;
  f.op = op;
  f.request_id = request_id;
  append_u64(f.payload, job_id);
  return f;
}

WireStatus parse_job_id_request(const Frame& frame, std::uint64_t* job_id) {
  if (frame.type != FrameType::kRequest) return WireStatus::kMalformed;
  if (frame.op != Op::kJobStatus && frame.op != Op::kJobCancel &&
      frame.op != Op::kJobResult)
    return WireStatus::kMalformed;
  if (frame.config_digest != 0) return WireStatus::kMalformed;
  Cursor c{frame.payload.data(), frame.payload.size()};
  if (!c.u64(job_id) || c.left != 0) return WireStatus::kMalformed;
  return WireStatus::kOk;
}

Frame make_job_submit_response(std::uint32_t request_id, std::uint64_t job_id) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kJobSubmit;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  append_u64(f.payload, job_id);
  return f;
}

Frame make_job_status_response(std::uint32_t request_id, const jobs::JobStatus& status) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kJobStatus;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  std::vector<std::uint8_t>& p = f.payload;
  append_u64(p, status.id);
  append_u8(p, static_cast<std::uint8_t>(status.state));
  append_u8(p, static_cast<std::uint8_t>(status.phase));
  append_u16(p, 0);  // reserved
  append_u32(p, status.sa_iteration);
  append_u32(p, status.sa_total);
  append_u32(p, status.checkpoints);
  append_u32(p, status.rungs);
  append_f64(p, status.progress);
  append_f64(p, status.target_bytes);
  append_f64(p, status.achieved_bytes);
  append_f64(p, status.rate_error);
  append_u32(p, static_cast<std::uint32_t>(status.error.size()));
  p.insert(p.end(), status.error.begin(), status.error.end());
  return f;
}

Frame make_job_cancel_response(std::uint32_t request_id) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kJobCancel;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  return f;
}

Frame make_job_result_response(std::uint32_t request_id, const jobs::JobResult& result) {
  Frame f;
  f.type = FrameType::kResponse;
  f.op = Op::kJobResult;
  f.status = static_cast<std::uint8_t>(WireStatus::kOk);
  f.request_id = request_id;
  std::vector<std::uint8_t>& p = f.payload;
  append_u64(p, result.id);
  append_u32(p, static_cast<std::uint32_t>(result.quality));
  append_u32(p, result.sa_iterations);
  append_u32(p, static_cast<std::uint32_t>(result.accepted_moves));
  append_u32(p, 0);  // reserved
  append_f64(p, result.target_bytes);
  append_f64(p, result.achieved_bytes);
  append_f64(p, result.initial_cost);
  append_f64(p, result.best_cost);
  append_table(p, result.table);
  append_u32(p, static_cast<std::uint32_t>(result.rungs.size()));
  for (const jobs::LadderRung& rung : result.rungs) {
    append_u32(p, static_cast<std::uint32_t>(rung.name.size()));
    p.insert(p.end(), rung.name.begin(), rung.name.end());
    append_u64(p, rung.version);
    append_u32(p, static_cast<std::uint32_t>(rung.quality));
    append_f64(p, rung.target_bytes);
    append_f64(p, rung.achieved_bytes);
  }
  append_u32(p, static_cast<std::uint32_t>(result.checkpoint.size()));
  p.insert(p.end(), result.checkpoint.begin(), result.checkpoint.end());
  return f;
}

}  // namespace dnj::net
