#include "bench_common.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "simd/dispatch.hpp"

#ifndef DNJ_GIT_SHA
#define DNJ_GIT_SHA "unknown"
#endif

namespace dnj::bench {

namespace {

jpeg::EncoderConfig quality_config(int quality) {
  jpeg::EncoderConfig cfg;
  cfg.quality = quality;
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

}  // namespace

ExperimentEnv make_env(int train_per_class, int test_per_class, std::uint64_t seed) {
  ExperimentEnv env;
  env.gen_config.width = 32;
  env.gen_config.height = 32;
  env.gen_config.channels = 1;
  env.gen_config.num_classes = 8;
  env.gen_config.seed = seed;
  const data::SyntheticDatasetGenerator gen(env.gen_config);
  std::tie(env.train_raw, env.test_raw) = gen.generate_split(train_per_class, test_per_class);

  // The paper's CR = 1 reference: everything stored as QF-100 JPEG.
  core::TranscodeResult tr = core::transcode(env.train_raw, quality_config(100));
  env.train = std::move(tr.dataset);
  env.reference_train_bytes = tr.scan_bytes;
  core::TranscodeResult te = core::transcode(env.test_raw, quality_config(100));
  env.test = std::move(te.dataset);
  env.reference_test_bytes = te.scan_bytes;
  env.reference_bytes = env.reference_train_bytes + env.reference_test_bytes;
  return env;
}

nn::TrainConfig default_train_config(int epochs) {
  nn::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 32;
  cfg.lr = 0.03f;
  cfg.lr_decay = 0.92f;
  cfg.momentum = 0.9f;
  cfg.weight_decay = 1e-4f;
  cfg.seed = 0xBEEF;
  return cfg;
}

nn::LayerPtr train_model(nn::ModelKind kind, const data::Dataset& train, int epochs,
                         std::uint64_t seed) {
  nn::LayerPtr model =
      nn::make_model(kind, train.channels(), train.width(), train.num_classes, seed);
  nn::TrainConfig cfg = default_train_config(epochs);
  nn::train(*model, train, nullptr, cfg);
  return model;
}

data::Dataset recompress_quality(const data::Dataset& ds, int quality,
                                 std::size_t* bytes_out) {
  core::TranscodeResult res = core::transcode(ds, quality_config(quality));
  if (bytes_out) *bytes_out = res.scan_bytes;
  return std::move(res.dataset);
}

data::Dataset recompress_table(const data::Dataset& ds, const jpeg::QuantTable& table,
                               std::size_t* bytes_out) {
  core::TranscodeResult res = core::transcode(ds, core::custom_table_config(table));
  if (bytes_out) *bytes_out = res.scan_bytes;
  return std::move(res.dataset);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

JsonWriter::JsonWriter(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  path_ = "bench_results/" + name + ".json";
  file_ = std::fopen(path_.c_str(), "w");
  if (!file_) throw std::runtime_error("JsonWriter: cannot open " + path_);
  std::fputs("{", static_cast<std::FILE*>(file_));
  needs_comma_.push_back(false);
  // Run metadata first, so every trajectory file names the commit and
  // machine configuration that produced it.
  field("git_sha", DNJ_GIT_SHA);
  field("simd_level", simd::level_name(simd::active_level()));
  field("threads", static_cast<int>(runtime::ThreadPool::default_threads()));
}

JsonWriter::~JsonWriter() {
  if (file_) {
    while (!scope_kind_.empty()) close_scope();
    std::fputs("}\n", static_cast<std::FILE*>(file_));
    std::fclose(static_cast<std::FILE*>(file_));
  }
}

void JsonWriter::close_scope() {
  needs_comma_.pop_back();
  std::fputs(scope_kind_.back() == 'A' ? "]" : "}", static_cast<std::FILE*>(file_));
  scope_kind_.pop_back();
}

void JsonWriter::comma_only() {
  std::FILE* f = static_cast<std::FILE*>(file_);
  if (needs_comma_.back()) std::fputs(",", f);
  needs_comma_.back() = true;
  std::fputs("\n", f);
  for (std::size_t i = 0; i < needs_comma_.size(); ++i) std::fputs("  ", f);
}

void JsonWriter::comma_and_key(const std::string& key) {
  comma_only();
  std::fprintf(static_cast<std::FILE*>(file_), "\"%s\": ", json_escape(key).c_str());
}

void JsonWriter::field(const std::string& key, const std::string& value) {
  comma_and_key(key);
  std::fprintf(static_cast<std::FILE*>(file_), "\"%s\"", json_escape(value).c_str());
}

void JsonWriter::field(const std::string& key, const char* value) {
  field(key, std::string(value));
}

void JsonWriter::field(const std::string& key, double value) {
  comma_and_key(key);
  std::fprintf(static_cast<std::FILE*>(file_), "%.6g", value);
}

void JsonWriter::field(const std::string& key, std::size_t value) {
  comma_and_key(key);
  std::fprintf(static_cast<std::FILE*>(file_), "%zu", value);
}

void JsonWriter::field(const std::string& key, int value) {
  comma_and_key(key);
  std::fprintf(static_cast<std::FILE*>(file_), "%d", value);
}

void JsonWriter::field(const std::string& key, bool value) {
  comma_and_key(key);
  std::fputs(value ? "true" : "false", static_cast<std::FILE*>(file_));
}

void JsonWriter::open_scope(char kind) {
  std::fputs(kind == 'A' ? "[" : "{", static_cast<std::FILE*>(file_));
  needs_comma_.push_back(false);
  scope_kind_.push_back(kind);
}

void JsonWriter::begin_rows(const std::vector<std::string>& cols) {
  row_cols_ = cols;
  comma_and_key("rows");
  open_scope('A');
}

void JsonWriter::row(const std::vector<std::string>& cells) {
  if (cells.size() != row_cols_.size())
    throw std::runtime_error("JsonWriter::row: cell count does not match columns");
  comma_only();
  open_scope('O');
  for (std::size_t i = 0; i < cells.size(); ++i) field(row_cols_[i], cells[i]);
  close_scope();
  std::fflush(static_cast<std::FILE*>(file_));
}

void JsonWriter::end_rows() { close_scope(); }

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace dnj::bench
