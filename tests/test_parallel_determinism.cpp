// Pin the runtime layer's central contract: thread count never changes
// results. Every parallel loop in core/ splits work by range and grain
// only and merges partial results in index order, so byte counts, PSNR
// and annealed tables must be identical — not approximately, exactly —
// between 1 thread and N threads. The codec's own band-parallel pixel
// stages (jpeg/pipeline/bands.hpp) are pinned the same way: encoded
// streams and decoded pixels memcmp-identical at 1..4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/deepnjpeg.hpp"
#include "core/sa_optimizer.hpp"
#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/encoder.hpp"
#include "jpeg/pipeline/bands.hpp"
#include "simd/dispatch.hpp"

namespace dnj::core {
namespace {

data::Dataset det_dataset(int per_class = 6) {
  data::GeneratorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.num_classes = 4;
  cfg.seed = 777;
  return data::SyntheticDatasetGenerator(cfg).generate(per_class);
}

jpeg::EncoderConfig q80_config() {
  jpeg::EncoderConfig cfg;
  cfg.quality = 80;
  cfg.subsampling = jpeg::Subsampling::k444;
  return cfg;
}

TEST(ParallelDeterminism, TranscodeIsIdenticalAcrossThreadCounts) {
  const data::Dataset ds = det_dataset();
  const jpeg::EncoderConfig cfg = q80_config();
  const TranscodeResult serial = transcode(ds, cfg, /*num_threads=*/1);
  for (int threads : {2, 4, 8}) {
    const TranscodeResult parallel = transcode(ds, cfg, threads);
    EXPECT_EQ(parallel.total_bytes, serial.total_bytes) << "threads=" << threads;
    EXPECT_EQ(parallel.scan_bytes, serial.scan_bytes) << "threads=" << threads;
    // Bit-exact, not EXPECT_DOUBLE_EQ: the fold order is thread-invariant.
    EXPECT_EQ(parallel.mean_psnr, serial.mean_psnr) << "threads=" << threads;
    ASSERT_EQ(parallel.dataset.size(), serial.dataset.size());
    for (std::size_t i = 0; i < serial.dataset.size(); ++i) {
      EXPECT_EQ(parallel.dataset.samples[i].image, serial.dataset.samples[i].image);
      EXPECT_EQ(parallel.dataset.samples[i].label, serial.dataset.samples[i].label);
    }
  }
}

TEST(ParallelDeterminism, DatasetByteCountsAreIdenticalAcrossThreadCounts) {
  const data::Dataset ds = det_dataset();
  const jpeg::EncoderConfig cfg = q80_config();
  const std::size_t enc1 = dataset_encoded_bytes(ds, cfg, 1);
  const std::size_t scan1 = dataset_scan_bytes(ds, cfg, 1);
  const std::size_t ref1 = reference_bytes_qf100(ds, 1);
  for (int threads : {2, 4}) {
    EXPECT_EQ(dataset_encoded_bytes(ds, cfg, threads), enc1);
    EXPECT_EQ(dataset_scan_bytes(ds, cfg, threads), scan1);
    EXPECT_EQ(reference_bytes_qf100(ds, threads), ref1);
  }
}

TEST(ParallelDeterminism, AnnealedTableIsIdenticalAcrossThreadCounts) {
  const data::Dataset ds = det_dataset(4);
  const FrequencyProfile profile = analyze(ds);
  SaConfig cfg;
  cfg.iterations = 80;
  cfg.sample_images = 6;

  cfg.num_threads = 1;
  const SaResult serial = anneal_table(ds, profile, jpeg::QuantTable::uniform(8), cfg);
  for (int threads : {2, 4}) {
    cfg.num_threads = threads;
    const SaResult parallel = anneal_table(ds, profile, jpeg::QuantTable::uniform(8), cfg);
    EXPECT_EQ(parallel.table, serial.table) << "threads=" << threads;
    EXPECT_EQ(parallel.best_cost, serial.best_cost) << "threads=" << threads;
    EXPECT_EQ(parallel.initial_cost, serial.initial_cost) << "threads=" << threads;
    EXPECT_EQ(parallel.accepted_moves, serial.accepted_moves) << "threads=" << threads;
    ASSERT_EQ(parallel.cost_history.size(), serial.cost_history.size());
    for (std::size_t i = 0; i < serial.cost_history.size(); ++i)
      EXPECT_EQ(parallel.cost_history[i], serial.cost_history[i]) << "iteration " << i;
  }
}

}  // namespace
}  // namespace dnj::core

namespace dnj::jpeg {
namespace {

using image::Image;

// --- band-parallel pixel stages ------------------------------------------

struct Mode {
  const char* name;
  int channels;
  Subsampling sub;
};
const Mode kModes[] = {{"gray", 1, Subsampling::k444},
                       {"444", 3, Subsampling::k444},
                       {"420", 3, Subsampling::k420}};

const simd::Level kLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                               simd::Level::kAvx2};

// Smooth texture plus noise, so every block carries AC energy.
Image band_test_image(int w, int h, int channels, std::uint64_t seed) {
  Image img(w, h, channels);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> noise(-24, 24);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < channels; ++c) {
        const float base = 128.0f + 60.0f * std::sin(x * 0.11f + 2.0f * c) * std::cos(y * 0.07f);
        img.at(x, y, c) = image::clamp_u8(base + static_cast<float>(noise(rng)));
      }
  return img;
}

QuantTable ramp_table(int base, int slope) {
  std::array<std::uint16_t, 64> q{};
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u)
      q[static_cast<std::size_t>(v * 8 + u)] = static_cast<std::uint16_t>(base + slope * (u + v));
  return QuantTable(q);
}

// The config axes: Annex K tables without restarts, custom tables with
// restart markers and optimal Huffman tables, Annex K with both.
EncoderConfig band_config(int variant, Subsampling sub) {
  EncoderConfig cfg;
  cfg.subsampling = sub;
  switch (variant % 3) {
    case 0:
      cfg.quality = 75;
      break;
    case 1:
      cfg.use_custom_tables = true;
      cfg.luma_table = ramp_table(2, 3);
      cfg.chroma_table = ramp_table(6, 5);
      cfg.restart_interval = 7;
      cfg.optimize_huffman = true;
      break;
    default:
      cfg.quality = 90;
      cfg.restart_interval = 1;
      cfg.optimize_huffman = true;
      break;
  }
  return cfg;
}

// Blocks per MCU row, as the encoder lays the frame out.
std::size_t blocks_per_mcu_row(int w, const Mode& m) {
  if (m.channels == 1) return static_cast<std::size_t>((w + 7) / 8);
  if (m.sub == Subsampling::k444) return 3 * static_cast<std::size_t>((w + 7) / 8);
  return 6 * static_cast<std::size_t>((w + 15) / 16);
}

// The smallest height (at width `w`) whose frame splits into two bands.
int two_band_height(int w, const Mode& m) {
  const int mcu = m.sub == Subsampling::k420 && m.channels == 3 ? 16 : 8;
  const std::size_t per_row = blocks_per_mcu_row(w, m);
  const int rows = static_cast<int>((pipeline::kMinBandBlocks + per_row - 1) / per_row);
  return rows * mcu + 1;
}

bool same_bytes(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.channels() == b.channels() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size()) == 0;
}

// Encodes and decodes `img` at 1..4 threads on every SIMD level and
// memcmps every stream and every decoded image against the first result
// for its config. That first stream must also match the per-block
// reference encoder, which never bands at all. `every_config` crosses all
// three config variants with every level; otherwise each level runs one
// variant, rotated by `rotation`, which keeps the 1080p cases affordable.
void expect_thread_invariant(const Image& img, const Mode& mode, const std::string& label,
                             bool every_config, int rotation) {
  pipeline::CodecContext ctx;  // shared: arenas reshape across levels and configs
  std::vector<std::uint8_t> want_bytes[3];
  Image want_pixels[3];
  for (std::size_t li = 0; li < std::size(kLevels); ++li) {
    if (!simd::set_level(kLevels[li])) continue;
    for (int variant = 0; variant < 3; ++variant) {
      if (!every_config && variant != (static_cast<int>(li) + rotation) % 3) continue;
      const EncoderConfig cfg = band_config(variant, mode.sub);
      const std::string where = label + " " + mode.name + " config=" +
                                std::to_string(variant) + " level=" +
                                simd::level_name(kLevels[li]);
      for (int threads = 1; threads <= 4; ++threads) {
        const std::vector<std::uint8_t> bytes = encode(img, cfg, ctx, threads);
        if (want_bytes[variant].empty()) {
          want_bytes[variant] = bytes;
          want_pixels[variant] = decode(bytes, ctx, 1);
          EXPECT_TRUE(same_bytes(bytes, encode_reference(img, cfg))) << where << " reference";
        }
        EXPECT_TRUE(same_bytes(bytes, want_bytes[variant]))
            << where << " encode threads=" << threads;
        EXPECT_TRUE(same_pixels(decode(want_bytes[variant], ctx, threads),
                                want_pixels[variant]))
            << where << " decode threads=" << threads;
      }
    }
  }
  simd::set_level(simd::max_supported_level());
}

class BandParallelCodec : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandParallelCodec, StreamsAndPixelsAreIdenticalAcrossThreadCounts) {
  const auto [w, h] = GetParam();
  const bool every_config = w * h < 1000 * 1000;
  for (int m = 0; m < 3; ++m) {
    const Mode& mode = kModes[m];
    const Image img = band_test_image(w, h, mode.channels, 0xBA5D + 31 * w + h);
    expect_thread_invariant(img, mode, std::to_string(w) + "x" + std::to_string(h),
                            every_config, m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BandParallelCodec,
    ::testing::Values(std::pair{1, 1}, std::pair{223, 225}, std::pair{224, 224},
                      std::pair{1920, 1080}, std::pair{1921, 1081}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return std::to_string(info.param.first) + "x" + std::to_string(info.param.second);
    });

// One block row below, at and one block row above the height where a
// 512-wide frame first splits into two bands, per mode; the band counts
// are asserted so the cases keep straddling the threshold if the band
// size constant moves. The two-band frame crosses every config with
// every level.
TEST(BandParallelCodec, TwoBandThresholdIsSeamless) {
  constexpr int kWidth = 512;
  for (const Mode& mode : kModes) {
    const int at = two_band_height(kWidth, mode);
    const int mcu = mode.sub == Subsampling::k420 && mode.channels == 3 ? 16 : 8;
    for (const int h : {at - 8, at, at + 8}) {
      const int mcus_y = (h + mcu - 1) / mcu;
      const pipeline::BandPlan plan(blocks_per_mcu_row(kWidth, mode), mcus_y);
      EXPECT_EQ(plan.bands(), h < at ? 1 : 2) << mode.name << " h=" << h;
      const Image img = band_test_image(kWidth, h, mode.channels, 0x7E5 + h);
      const std::string label = std::to_string(kWidth) + "x" + std::to_string(h);
      expect_thread_invariant(img, mode, label, /*every_config=*/h == at, 0);
    }
  }
}

}  // namespace
}  // namespace dnj::jpeg
