// Value types of the public API: zero-copy input views, owned outputs, and
// the builder-style option sets. Standard-library-only (plus base/views.hpp,
// which is itself std-only) — no internal codec headers leak through here.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/views.hpp"

namespace dnj::api {

/// Zero-copy view over an encoded byte stream (implicitly constructible
/// from std::vector<uint8_t> or {ptr, size}).
using ByteSpan = dnj::ByteSpan;

/// Zero-copy view over interleaved 8-bit pixels (1 = gray, 3 = RGB).
/// The encoder reads pixels straight through the view — no staging copy.
using ImageView = dnj::PixelView;

/// Maximum width/height baseline JPEG can express (SOF0 is 16-bit).
inline constexpr int kMaxImageDimension = 65535;

/// A decoded image, owned by the caller. `view()` re-enters the API
/// zero-copy (e.g. to re-encode the decoded pixels).
struct DecodedImage {
  int width = 0;
  int height = 0;
  int channels = 0;
  std::vector<std::uint8_t> pixels;  ///< interleaved, width*height*channels

  ImageView view() const { return {pixels.data(), width, height, channels}; }
};

/// Header facts of an encoded stream (no pixel decode).
struct StreamInfo {
  int width = 0;
  int height = 0;
  int components = 0;       ///< 1 = gray, 3 = YCbCr
  int restart_interval = 0; ///< MCUs between restart markers (0 = none)
  std::string comment;      ///< COM marker payload, if any
};

/// A quantization table as the API trades it: 64 steps in natural
/// (row-major) order. Steps are clamped into [1, 65535] on use.
using QuantTableValues = std::array<std::uint16_t, 64>;

/// Builder-style encoder options. Defaults match the library defaults:
/// quality 75, Annex K tables, 4:2:0 chroma subsampling, static Huffman
/// tables, no restart markers, no comment.
///
/// EncodeOptions is the one options representation shared by the
/// synchronous façade, the async Service, and the serving layer:
/// `digest()` hashes the canonical serialization of the underlying encoder
/// configuration, so it equals the config digest the serve layer caches
/// results on.
class EncodeOptions {
 public:
  /// IJG quality in [1, 100] (validated at the call boundary, not here).
  /// Ignored when custom tables are set.
  EncodeOptions& quality(int q) {
    quality_ = q;
    return *this;
  }

  /// Use the given quantization tables verbatim (the DeepN-JPEG path).
  EncodeOptions& custom_tables(const QuantTableValues& luma,
                               const QuantTableValues& chroma) {
    use_custom_tables_ = true;
    luma_table_ = luma;
    chroma_table_ = chroma;
    return *this;
  }

  /// 4:2:0 chroma subsampling on/off (off = 4:4:4). Default on.
  EncodeOptions& chroma_420(bool on) {
    chroma_420_ = on;
    return *this;
  }

  /// Two-pass encode with per-image optimal Huffman tables.
  EncodeOptions& optimize_huffman(bool on) {
    optimize_huffman_ = on;
    return *this;
  }

  /// Restart interval in MCUs (0 = no restart markers).
  EncodeOptions& restart_interval(int mcus) {
    restart_interval_ = mcus;
    return *this;
  }

  /// COM marker payload.
  EncodeOptions& comment(std::string text) {
    comment_ = std::move(text);
    return *this;
  }

  // Accessors (used by the implementation and by tests).
  int quality() const { return quality_; }
  bool uses_custom_tables() const { return use_custom_tables_; }
  const QuantTableValues& luma_table() const { return luma_table_; }
  const QuantTableValues& chroma_table() const { return chroma_table_; }
  bool chroma_420() const { return chroma_420_; }
  bool optimize_huffman() const { return optimize_huffman_; }
  int restart_interval() const { return restart_interval_; }
  const std::string& comment() const { return comment_; }

  /// FNV-1a digest of the canonical serialization of these options —
  /// byte-for-byte the config digest the serving layer keys its result
  /// cache on. Equal digests = the same
  /// encode computation.
  std::uint64_t digest() const;

 private:
  int quality_ = 75;
  bool use_custom_tables_ = false;
  QuantTableValues luma_table_{};
  QuantTableValues chroma_table_{};
  bool chroma_420_ = true;
  bool optimize_huffman_ = false;
  int restart_interval_ = 0;
  std::string comment_;
};

/// Builder-style options for the DeepN-JPEG table design flow.
class DesignOptions {
 public:
  /// Algorithm 1 sampling interval k: analyze every k-th image per class.
  DesignOptions& sample_interval(int k) {
    sample_interval_ = k;
    return *this;
  }

  /// Re-derive the PLM thresholds T1/T2 from the dataset's sigma ranking
  /// (paper Section 3.2.2) instead of the paper constants. Default on.
  DesignOptions& dataset_thresholds(bool on) {
    dataset_thresholds_ = on;
    return *this;
  }

  /// Carry optimize_huffman into the designed EncodeOptions.
  DesignOptions& optimize_huffman(bool on) {
    optimize_huffman_ = on;
    return *this;
  }

  int sample_interval() const { return sample_interval_; }
  bool dataset_thresholds() const { return dataset_thresholds_; }
  bool optimize_huffman() const { return optimize_huffman_; }

 private:
  int sample_interval_ = 1;
  bool dataset_thresholds_ = true;
  bool optimize_huffman_ = false;
};

/// Lifecycle of an async design job (TableDesigner::submit). kPaused is
/// resumable: fetch() yields a checkpoint to resume from.
enum class DesignJobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kPaused = 2,
  kCompleted = 3,
  kFailed = 4,
  kCancelled = 5,
};
const char* design_job_state_name(DesignJobState state);

/// Builder-style options for an async, rate-controlled design job. The
/// accumulated designer sample becomes the job's dataset; on top of the
/// synchronous design flow the job anneals the table (SA), binary-searches
/// the quality that meets `target_bytes_per_image`, and registers the
/// result (plus any ladder rate points) as servable tenants.
class DesignJobOptions {
 public:
  /// Registry name the designed config is published under (ladder points
  /// as "<tenant>:r<i>"). Default "designer".
  DesignJobOptions& tenant(std::string name) {
    tenant_ = std::move(name);
    return *this;
  }
  /// Rate target: mean entropy-coded scan bytes per image. 0 = no rate
  /// control (register the designed table at its midpoint, quality 50).
  DesignJobOptions& target_bytes_per_image(double bytes) {
    target_bytes_ = bytes;
    return *this;
  }
  /// Additional rate points, each searched and registered separately.
  DesignJobOptions& ladder(std::vector<double> targets) {
    ladder_ = std::move(targets);
    return *this;
  }
  /// Simulated-annealing iterations refining the analyzed table.
  DesignJobOptions& sa_iterations(int n) {
    sa_iterations_ = n;
    return *this;
  }
  DesignJobOptions& sa_seed(std::uint64_t seed) {
    sa_seed_ = seed;
    return *this;
  }
  /// Deterministic pause point: > 0 parks the job in kPaused once the SA
  /// iteration counter reaches this value (checkpoint retrievable).
  DesignJobOptions& anneal_limit(int iterations) {
    anneal_limit_ = iterations;
    return *this;
  }
  /// Resume/refine from a checkpoint a previous job's fetch() returned.
  DesignJobOptions& resume_from(std::vector<std::uint8_t> checkpoint) {
    checkpoint_ = std::move(checkpoint);
    return *this;
  }
  /// Algorithm 1 sampling interval k (every k-th image per class).
  DesignJobOptions& sample_interval(int k) {
    sample_interval_ = k;
    return *this;
  }

  const std::string& tenant() const { return tenant_; }
  double target_bytes_per_image() const { return target_bytes_; }
  const std::vector<double>& ladder() const { return ladder_; }
  int sa_iterations() const { return sa_iterations_; }
  std::uint64_t sa_seed() const { return sa_seed_; }
  int anneal_limit() const { return anneal_limit_; }
  const std::vector<std::uint8_t>& checkpoint() const { return checkpoint_; }
  int sample_interval() const { return sample_interval_; }

 private:
  std::string tenant_ = "designer";
  double target_bytes_ = 0.0;
  std::vector<double> ladder_;
  int sa_iterations_ = 400;
  std::uint64_t sa_seed_ = 0x5A5A;
  int anneal_limit_ = 0;
  std::vector<std::uint8_t> checkpoint_;
  int sample_interval_ = 1;
};

/// One registered rate point of a job's quality ladder.
struct DesignLadderRung {
  std::string name;             ///< registry tenant name
  std::uint64_t version = 0;    ///< registry publication stamp
  int quality = 50;             ///< IJG scaling applied to the designed pair
  double target_bytes = 0.0;
  double achieved_bytes = 0.0;  ///< measured mean bytes/image
};

/// Poll snapshot of an async design job.
struct DesignJobStatus {
  std::uint64_t id = 0;
  DesignJobState state = DesignJobState::kQueued;
  std::string phase;         ///< pipeline position (analyze/anneal/...)
  double progress = 0.0;     ///< coarse fraction in [0, 1]
  std::uint32_t sa_iteration = 0;
  std::uint32_t sa_total = 0;
  double target_bytes = 0.0;
  double achieved_bytes = 0.0;
  double rate_error = 0.0;   ///< |achieved - target| / target (0 when no target)
  std::uint32_t checkpoints = 0;
  std::uint32_t rungs = 0;
  std::string error;         ///< non-empty iff state == kFailed
};

/// Result of a completed (or paused — best-so-far) design job.
struct DesignJobResult {
  std::uint64_t id = 0;
  QuantTableValues table{};      ///< the annealed table, natural order
  int quality = 50;              ///< rate-search answer for the primary target
  double target_bytes = 0.0;
  double achieved_bytes = 0.0;
  double initial_cost = 0.0;
  double best_cost = 0.0;
  int accepted_moves = 0;
  std::uint32_t sa_iterations = 0;
  std::vector<DesignLadderRung> rungs;
  std::vector<std::uint8_t> checkpoint;  ///< resume/refine seed
};

/// Everything the design flow produces that a deployment needs to keep:
/// the table itself plus the design provenance.
struct TableDesign {
  QuantTableValues table{};   ///< designed steps, natural order
  double t1 = 0.0, t2 = 0.0;  ///< PLM thresholds actually used
  std::uint64_t images_analyzed = 0;
  std::uint64_t blocks_analyzed = 0;
  bool optimize_huffman = false;  ///< carried from DesignOptions

  /// Ready-to-use encoder options: the designed table on luma and chroma
  /// alike, 4:4:4 subsampling — exactly the configuration the paper's
  /// experiments (and core::custom_table_config) use.
  EncodeOptions encode_options() const {
    return EncodeOptions()
        .custom_tables(table, table)
        .chroma_420(false)
        .optimize_huffman(optimize_huffman);
  }
};

}  // namespace dnj::api
