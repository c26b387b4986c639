// Equivalence suite for the planar block-batch codec core: the batched
// pipeline (CoeffPlane tiling + fdct_batch + fused reciprocal
// quantize/zigzag + zero-alloc entropy pass) must produce byte-identical
// streams to the retained per-block reference encoder across image shapes,
// subsampling modes, and table precisions — and the batched primitives must
// be bit-identical to their per-block counterparts.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/zigzag.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {
namespace {

using image::Image;
using image::kBlockDim;
using image::kBlockSize;
using image::PlaneF;
using pipeline::CodecContext;
using pipeline::CoeffPlane;

Image textured_image(int w, int h, int channels, std::uint64_t seed) {
  Image img(w, h, channels);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> noise(-20, 20);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < channels; ++c) {
        const float base = 128.0f + 55.0f * std::sin(x * 0.23f + c) * std::cos(y * 0.19f);
        img.at(x, y, c) = image::clamp_u8(base + static_cast<float>(noise(rng)));
      }
  return img;
}

// --- batched primitives vs per-block paths --------------------------------

TEST(PipelinePrimitives, FdctBatchBitIdenticalToPerBlock) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  CoeffPlane plane;
  plane.reshape(5, 3);
  for (std::size_t i = 0; i < plane.block_count() * kBlockSize; ++i)
    plane.data()[i] = dist(rng);

  std::vector<image::BlockF> reference(plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(plane.block(b), plane.block(b) + kBlockSize, blk.begin());
    reference[b] = fdct_aan(blk);
  }
  fdct_batch(plane.data(), plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(plane.block(b)[k], reference[b][static_cast<std::size_t>(k)])
          << "block " << b << " band " << k;
}

TEST(PipelinePrimitives, IdctBatchBitIdenticalToPerBlock) {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<float> dist(-500.0f, 500.0f);
  CoeffPlane plane;
  plane.reshape(4, 4);
  for (std::size_t i = 0; i < plane.block_count() * kBlockSize; ++i)
    plane.data()[i] = dist(rng);

  std::vector<image::BlockF> reference(plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(plane.block(b), plane.block(b) + kBlockSize, blk.begin());
    reference[b] = idct_fast(blk);
  }
  idct_batch(plane.data(), plane.block_count());
  for (std::size_t b = 0; b < plane.block_count(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(plane.block(b)[k], reference[b][static_cast<std::size_t>(k)]);
}

TEST(PipelinePrimitives, FusedQuantizeZigzagMatchesPerBlockQuantize) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<float> dist(-900.0f, 900.0f);
  CoeffPlane coeffs;
  coeffs.reshape(3, 2);
  for (std::size_t i = 0; i < coeffs.block_count() * kBlockSize; ++i)
    coeffs.data()[i] = dist(rng);
  const QuantTable table = QuantTable::annex_k_luma();
  const ReciprocalTable recip(table);

  std::vector<std::int16_t> zz(coeffs.block_count() * kBlockSize);
  quantize_zigzag_batch(coeffs.data(), coeffs.block_count(), recip, zz.data());

  for (std::size_t b = 0; b < coeffs.block_count(); ++b) {
    image::BlockF blk{};
    std::copy(coeffs.block(b), coeffs.block(b) + kBlockSize, blk.begin());
    const QuantizedBlock natural = quantize(blk, table);
    for (int k = 0; k < 64; ++k)
      EXPECT_EQ(zz[b * kBlockSize + static_cast<std::size_t>(k)],
                natural[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])])
          << "block " << b << " scan position " << k;
  }
}

TEST(PipelinePrimitives, DequantizeBatchMatchesPerBlock) {
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<int> dist(-1024, 1024);
  const QuantTable table = QuantTable::annex_k_chroma();
  std::vector<std::int16_t> q(4 * kBlockSize);
  for (std::int16_t& v : q) v = static_cast<std::int16_t>(dist(rng));
  std::vector<float> coeffs(q.size());
  dequantize_batch(q.data(), 4, table, coeffs.data());
  for (std::size_t b = 0; b < 4; ++b) {
    QuantizedBlock blk{};
    std::copy(q.begin() + static_cast<std::ptrdiff_t>(b * kBlockSize),
              q.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBlockSize), blk.begin());
    const image::BlockF ref = dequantize(blk, table);
    for (int k = 0; k < 64; ++k)
      EXPECT_EQ(coeffs[b * kBlockSize + static_cast<std::size_t>(k)],
                ref[static_cast<std::size_t>(k)]);
  }
}

TEST(PipelinePrimitives, TilingMatchesPaddedPlaneSplit) {
  // tile_blocks_into must reproduce pad_to_blocks + split_blocks exactly,
  // including edge replication on ragged dimensions.
  PlaneF plane(13, 9);
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  for (float& v : plane.data()) v = dist(rng);

  int bx = 0, by = 0;
  const std::vector<image::BlockF> blocks = image::split_blocks(plane, &bx, &by);
  CoeffPlane tiled;
  tiled.tile_from(plane, bx, by, 0.0f);
  ASSERT_EQ(tiled.block_count(), blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int k = 0; k < kBlockSize; ++k)
      EXPECT_EQ(tiled.block(b)[k], blocks[b][static_cast<std::size_t>(k)]);

  // Grids larger than the padded plane replicate further (4:2:0 luma case).
  CoeffPlane wide;
  wide.tile_from(plane, bx + 1, by + 1, 0.0f);
  const float last = plane.at(plane.width() - 1, plane.height() - 1);
  EXPECT_EQ(wide.block(wide.block_count() - 1)[kBlockSize - 1], last);
}

TEST(PipelinePrimitives, UntileRoundTripsTile) {
  PlaneF plane(24, 16);
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  for (float& v : plane.data()) v = dist(rng);
  CoeffPlane tiled;
  tiled.tile_from(plane, 3, 2, 0.0f);
  PlaneF back(24, 16);
  image::untile_blocks_from(tiled.data(), 3, 2, back, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) EXPECT_EQ(back.at(x, y), plane.at(x, y));

  // The level-shift pair (-128 on tile, +128 on untile) reconstructs up to
  // one float rounding step — it is not an exact inverse for arbitrary
  // fractional samples, only for the integral pixel values the codec feeds.
  tiled.tile_from(plane, 3, 2, -128.0f);
  image::untile_blocks_from(tiled.data(), 3, 2, back, 128.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) EXPECT_NEAR(back.at(x, y), plane.at(x, y), 1e-4f);
}

TEST(PipelinePrimitives, ReciprocalRoundingMatchesNearbyint) {
  // Anchor the codec's rounding rule independently of the encoder paths:
  // quantize must equal nearbyintf(c * (1/q)) — IEEE round half to even on
  // the float grid — for every step size, including near-half boundaries.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<float> dist(-2000.0f, 2000.0f);
  for (std::uint16_t q : {1, 2, 3, 7, 10, 16, 99, 255, 1000, 65535}) {
    const QuantTable t = QuantTable::uniform(q);
    const float r = 1.0f / static_cast<float>(q);
    image::BlockF coeffs{};
    for (int k = 0; k < 64; ++k) {
      // Mix random values with exact and near half-way multiples of q.
      const float half = (static_cast<float>(k % 16) + 0.5f) * static_cast<float>(q);
      coeffs[static_cast<std::size_t>(k)] =
          (k % 3 == 0) ? dist(rng) : (k % 3 == 1 ? half : std::nextafterf(half, 1e30f));
    }
    const QuantizedBlock out = quantize(coeffs, t);
    for (int k = 0; k < 64; ++k) {
      const float expect = std::nearbyintf(coeffs[static_cast<std::size_t>(k)] * r);
      EXPECT_EQ(out[static_cast<std::size_t>(k)],
                static_cast<std::int16_t>(std::clamp(expect, -32768.0f, 32767.0f)))
          << "q=" << q << " k=" << k << " c=" << coeffs[static_cast<std::size_t>(k)];
    }
  }
}

// --- whole-stream equivalence ---------------------------------------------

struct PipelineCase {
  int w, h, channels;
  Subsampling sub;
  bool optimize_huffman;
  int restart_interval;
};

class PipelineEquivalence : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEquivalence, BatchedEncodeByteIdenticalToReference) {
  const auto p = GetParam();
  const Image img = textured_image(p.w, p.h, p.channels, 0xABCD + p.w * 31 + p.h);
  EncoderConfig cfg;
  cfg.quality = 80;
  cfg.subsampling = p.sub;
  cfg.optimize_huffman = p.optimize_huffman;
  cfg.restart_interval = p.restart_interval;
  const auto reference = encode_reference(img, cfg);
  const auto pipeline = encode(img, cfg);
  EXPECT_EQ(pipeline, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineEquivalence,
    ::testing::Values(PipelineCase{8, 8, 1, Subsampling::k444, false, 0},
                      PipelineCase{32, 32, 1, Subsampling::k444, true, 0},
                      PipelineCase{17, 13, 1, Subsampling::k444, false, 0},
                      PipelineCase{1, 1, 1, Subsampling::k444, false, 0},
                      PipelineCase{16, 16, 3, Subsampling::k444, false, 0},
                      PipelineCase{33, 31, 3, Subsampling::k420, false, 0},
                      PipelineCase{33, 31, 3, Subsampling::k420, true, 0},
                      PipelineCase{9, 25, 3, Subsampling::k420, false, 2},
                      PipelineCase{64, 48, 3, Subsampling::k444, false, 3},
                      PipelineCase{40, 24, 3, Subsampling::k420, true, 1},
                      PipelineCase{128, 96, 3, Subsampling::k420, false, 0}));

TEST(PipelineEquivalenceExtra, CustomSixteenBitTables) {
  std::array<std::uint16_t, 64> steps{};
  for (int k = 0; k < 64; ++k)
    steps[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(1 + 17 * k);  // up to 1072
  EncoderConfig cfg;
  cfg.use_custom_tables = true;
  cfg.luma_table = QuantTable(steps);
  cfg.chroma_table = QuantTable(steps);
  for (const auto& dims : {std::pair<int, int>{16, 16}, {23, 41}}) {
    const Image img = textured_image(dims.first, dims.second, 3, 0xFEED);
    cfg.subsampling = Subsampling::k420;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg));
    cfg.subsampling = Subsampling::k444;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg));
  }
}

TEST(PipelineEquivalenceExtra, QualitySweepGray) {
  const Image img = textured_image(48, 48, 1, 0xC0FFEE);
  // Out-of-range qualities clamp like QuantTable::scaled — in particular
  // -1 must not collide with the context cache's empty sentinel.
  for (int q : {-1, 0, 1, 10, 50, 75, 95, 100, 300}) {
    EncoderConfig cfg;
    cfg.quality = q;
    EXPECT_EQ(encode(img, cfg), encode_reference(img, cfg)) << "quality " << q;
  }
}

// --- context reuse ----------------------------------------------------------

TEST(CodecContext, ReuseAcrossImagesAndShapesIsStateless) {
  CodecContext ctx;
  EncoderConfig cfg;
  cfg.quality = 85;
  // Interleave shapes/modes so every arena reshapes repeatedly; results
  // must match fresh-context encodes bit for bit.
  const Image a = textured_image(32, 32, 3, 1);
  const Image b = textured_image(17, 29, 1, 2);
  const Image c = textured_image(64, 48, 3, 3);
  for (int round = 0; round < 3; ++round) {
    for (const Image* img : {&a, &b, &c}) {
      CodecContext fresh;
      EXPECT_EQ(encode(*img, cfg, ctx), encode(*img, cfg, fresh));
    }
    cfg.subsampling = cfg.subsampling == Subsampling::k420 ? Subsampling::k444
                                                           : Subsampling::k420;
  }
}

TEST(CodecContext, RoundTripThroughContextMatchesDefaultPath) {
  CodecContext ctx;
  const Image img = textured_image(40, 40, 3, 4);
  EncoderConfig cfg;
  cfg.quality = 70;
  cfg.subsampling = Subsampling::k420;
  const RoundTrip via_ctx = round_trip(img, cfg, ctx);
  const RoundTrip via_default = round_trip(img, cfg);
  EXPECT_EQ(via_ctx.bytes, via_default.bytes);
  EXPECT_EQ(via_ctx.decoded, via_default.decoded);
}

TEST(CodecContext, ReciprocalCacheTracksTableChanges) {
  CodecContext ctx;
  const QuantTable a = QuantTable::uniform(4);
  const QuantTable b = QuantTable::uniform(9);
  const ReciprocalTable& ra = ctx.reciprocal_for(a, 0);
  EXPECT_EQ(ra.recip(0), 1.0f / 4.0f);
  const ReciprocalTable& rb = ctx.reciprocal_for(b, 0);
  EXPECT_EQ(rb.recip(0), 1.0f / 9.0f);
  // Chroma slot is independent.
  const ReciprocalTable& rc = ctx.reciprocal_for(a, 1);
  EXPECT_EQ(rc.recip(63), 1.0f / 4.0f);
}

TEST(CodecContext, DecodeThroughReusedContextMatchesFresh) {
  CodecContext ctx;
  EncoderConfig cfg;
  cfg.quality = 75;
  cfg.subsampling = Subsampling::k420;
  const Image big = textured_image(64, 64, 3, 5);
  const Image small = textured_image(24, 8, 1, 6);
  const auto big_bytes = encode(big, cfg);
  const auto small_bytes = encode(small, cfg);
  // Decode large, then small (arenas shrink), then large again.
  const Image d1 = decode(big_bytes, ctx);
  const Image d2 = decode(small_bytes, ctx);
  const Image d3 = decode(big_bytes, ctx);
  CodecContext fresh1, fresh2;
  EXPECT_EQ(d1, decode(big_bytes, fresh1));
  EXPECT_EQ(d2, decode(small_bytes, fresh2));
  EXPECT_EQ(d1, d3);
}

// --- decode reconstruction vs the legacy composition ------------------------
//
// The decoder fuses 4:2:0 chroma upsampling into the colour convert, one
// output row at a time. The oracle is the composition it replaced, built
// from public stages the way perfbench/src/layers.cpp replays it:
// decode_coefficients -> dequantize_batch -> idct_batch ->
// untile_blocks_from -> crop -> upsample_2x2 -> 128-pad -> to_rgb. As in
// the pre-fusion decoder, a chroma plane is upsampled only when its block
// grid is half the luma grid both ways; a full-size plane is used as is.

Image legacy_decode(ByteSpan bytes, int threads) {
  CodecContext ctx;
  const JpegInfo info = decode_coefficients(bytes, ctx, threads);
  const int comps = info.components;
  std::array<PlaneF, 3> planes;
  for (int c = 0; c < comps; ++c) {
    const pipeline::QuantPlane& q = ctx.decode_coeffs[static_cast<std::size_t>(c)];
    CoeffPlane fp;
    fp.reshape(q.blocks_x(), q.blocks_y());
    const int slot = c == 0 ? 0 : 1;
    const QuantTable& table =
        info.quant_tables[slot] ? *info.quant_tables[slot] : *info.quant_tables[0];
    dequantize_batch(q.data(), q.block_count(), table, fp.data());
    idct_batch(fp.data(), q.block_count());
    PlaneF& plane = planes[static_cast<std::size_t>(c)];
    plane.reset(q.blocks_x() * kBlockDim, q.blocks_y() * kBlockDim);
    image::untile_blocks_from(fp.data(), q.blocks_x(), q.blocks_y(), plane, 128.0f);
  }
  if (comps == 1) {
    Image img(info.width, info.height, 1);
    image::from_plane(planes[0], img, 0);
    return img;
  }
  const PlaneF& luma = planes[0];
  for (std::size_t c = 1; c < 3; ++c) {
    const pipeline::QuantPlane& q = ctx.decode_coeffs[c];
    if (2 * q.blocks_x() != ctx.decode_coeffs[0].blocks_x() ||
        2 * q.blocks_y() != ctx.decode_coeffs[0].blocks_y())
      continue;
    PlaneF& p = planes[c];
    const int need_w = (info.width + 1) / 2, need_h = (info.height + 1) / 2;
    PlaneF cropped(need_w, need_h);
    for (int y = 0; y < need_h; ++y)
      for (int x = 0; x < need_w; ++x) cropped.at(x, y) = p.at(x, y);
    const PlaneF up = image::upsample_2x2(cropped, info.width, info.height);
    PlaneF padded(luma.width(), luma.height(), 128.0f);
    for (int y = 0; y < info.height; ++y)
      for (int x = 0; x < info.width; ++x) padded.at(x, y) = up.at(x, y);
    p = std::move(padded);
  }
  return image::to_rgb(luma, planes[1], planes[2], info.width, info.height);
}

/// memcmp on the pixel bytes: a failing 1080p EXPECT_EQ would print
/// megabytes of pixels.
bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.channels() == b.channels() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size()) == 0;
}

const simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                                  simd::Level::kAvx2};

class ReconstructionEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReconstructionEquivalence, FusedDecodeMatchesLegacyComposition) {
  const auto [w, h] = GetParam();
  struct Mode {
    const char* name;
    int channels;
    Subsampling sub;
  };
  const Mode modes[] = {{"gray", 1, Subsampling::k444},
                        {"444", 3, Subsampling::k444},
                        {"420", 3, Subsampling::k420}};
  CodecContext ctx;  // shared: arenas reshape across modes, sizes and levels
  for (const Mode& mode : modes) {
    const Image img = textured_image(w, h, mode.channels, 0x5EED + w * 7 + h);
    for (int restart : {0, 1}) {
      EncoderConfig cfg;
      cfg.quality = 75;
      cfg.subsampling = mode.sub;
      cfg.restart_interval = restart;
      const std::vector<std::uint8_t> bytes = encode(img, cfg);
      ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
      const Image expect = legacy_decode(bytes, 1);
      for (simd::Level level : kAllLevels) {
        if (!simd::set_level(level)) continue;
        for (int threads : {1, 4}) {
          EXPECT_TRUE(same_pixels(decode(bytes, ctx, threads), expect))
              << w << "x" << h << " " << mode.name << " restart=" << restart
              << " level=" << simd::level_name(level) << " threads=" << threads;
        }
      }
      simd::set_level(simd::max_supported_level());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ReconstructionEquivalence,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 2}, std::pair{3, 5},
                      std::pair{15, 17}, std::pair{17, 11}, std::pair{224, 224},
                      std::pair{225, 223}, std::pair{1919, 1079}, std::pair{1920, 1080}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return std::to_string(info.param.first) + "x" + std::to_string(info.param.second);
    });

/// A baseline 3-component stream with arbitrary sampling bytes (the encoder
/// only emits 4:4:4 and 4:2:0): one DQT and one DC/AC Huffman pair shared by
/// all components, random small quantized coefficients in every block.
std::vector<std::uint8_t> handmade_stream(int w, int h, const std::array<int, 3>& hv,
                                          std::uint64_t seed) {
  std::vector<std::uint8_t> out = {0xFF, 0xD8};
  const auto segment = [&](std::uint8_t marker, const std::vector<std::uint8_t>& body) {
    const std::size_t len = body.size() + 2;
    out.insert(out.end(), {0xFF, marker, static_cast<std::uint8_t>(len >> 8),
                           static_cast<std::uint8_t>(len & 0xFF)});
    out.insert(out.end(), body.begin(), body.end());
  };
  const QuantTable table = QuantTable::annex_k_luma();
  std::vector<std::uint8_t> dqt = {0x00};
  for (int k = 0; k < 64; ++k)
    dqt.push_back(static_cast<std::uint8_t>(table.step(kZigzag[static_cast<std::size_t>(k)])));
  segment(0xDB, dqt);
  std::vector<std::uint8_t> sof = {8,
                                   static_cast<std::uint8_t>(h >> 8),
                                   static_cast<std::uint8_t>(h & 0xFF),
                                   static_cast<std::uint8_t>(w >> 8),
                                   static_cast<std::uint8_t>(w & 0xFF),
                                   3};
  for (int c = 0; c < 3; ++c)
    sof.insert(sof.end(), {static_cast<std::uint8_t>(c + 1),
                           static_cast<std::uint8_t>(hv[static_cast<std::size_t>(c)]), 0});
  segment(0xC0, sof);
  const HuffmanSpec dc_spec = HuffmanSpec::default_dc_luma();
  const HuffmanSpec ac_spec = HuffmanSpec::default_ac_luma();
  for (const auto& [klass, spec] : {std::pair{0, &dc_spec}, std::pair{1, &ac_spec}}) {
    std::vector<std::uint8_t> dht = {static_cast<std::uint8_t>(klass << 4)};
    dht.insert(dht.end(), spec->counts.begin() + 1, spec->counts.end());
    dht.insert(dht.end(), spec->symbols.begin(), spec->symbols.end());
    segment(0xC4, dht);
  }
  segment(0xDA, {3, 1, 0x00, 2, 0x00, 3, 0x00, 0, 63, 0});

  int max_h = 1, max_v = 1;
  for (int c : hv) {
    max_h = std::max(max_h, c >> 4);
    max_v = std::max(max_v, c & 0x0F);
  }
  const int mcus_x = (w + 8 * max_h - 1) / (8 * max_h);
  const int mcus_y = (h + 8 * max_v - 1) / (8 * max_v);
  const HuffmanEncoder dc(dc_spec), ac(ac_spec);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dc_dist(-40, 40), ac_dist(-6, 6), pos(1, 20);
  BitWriter bw(out);
  int pred[3] = {};
  for (int m = 0; m < mcus_x * mcus_y; ++m)
    for (int c = 0; c < 3; ++c)
      for (int b = 0; b < (hv[static_cast<std::size_t>(c)] >> 4) *
                              (hv[static_cast<std::size_t>(c)] & 0x0F);
           ++b) {
        QuantizedBlock blk{};
        blk[0] = static_cast<std::int16_t>(dc_dist(rng));
        for (int i = 0; i < 4; ++i)
          blk[static_cast<std::size_t>(pos(rng))] = static_cast<std::int16_t>(ac_dist(rng));
        encode_block(bw, blk, pred[c], dc, ac);
      }
  bw.flush();
  out.insert(out.end(), {0xFF, 0xD9});
  return out;
}

TEST(ReconstructionMixedSampling, OneChromaPlaneFullOneHalfDecodesAsBefore) {
  for (const std::array<int, 3>& hv :
       {std::array<int, 3>{0x22, 0x11, 0x22}, std::array<int, 3>{0x22, 0x22, 0x11}}) {
    for (const auto& [w, h] : {std::pair{17, 11}, std::pair{33, 31}, std::pair{1, 1}}) {
      const std::vector<std::uint8_t> bytes = handmade_stream(w, h, hv, 0x3A + w);
      ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
      const Image expect = legacy_decode(bytes, 1);
      for (simd::Level level : kAllLevels) {
        if (!simd::set_level(level)) continue;
        CodecContext ctx;
        EXPECT_TRUE(same_pixels(decode(bytes, ctx), expect))
            << w << "x" << h << " sampling " << std::hex << hv[0] << "/" << hv[1] << "/"
            << hv[2] << " level=" << simd::level_name(level);
      }
      simd::set_level(simd::max_supported_level());
    }
  }
}

TEST(ReconstructionMixedSampling, UnsupportedSamplingIsATypedError) {
  // Chroma denser than luma, 4:2:2 and 4:4:0 chroma, and a 2x1/1x2 mix:
  // the scan is well formed for its own header, so only reconstruction can
  // refuse it — with the decoder's std::runtime_error.
  for (const std::array<int, 3>& hv :
       {std::array<int, 3>{0x11, 0x22, 0x22}, std::array<int, 3>{0x11, 0x11, 0x22},
        std::array<int, 3>{0x21, 0x11, 0x11}, std::array<int, 3>{0x12, 0x11, 0x11},
        std::array<int, 3>{0x22, 0x21, 0x12}}) {
    for (const auto& [w, h] : {std::pair{8, 8}, std::pair{17, 11}, std::pair{40, 24}}) {
      const std::vector<std::uint8_t> bytes = handmade_stream(w, h, hv, 0x7 + h);
      CodecContext ctx;
      EXPECT_THROW(decode(bytes, ctx), std::runtime_error)
          << w << "x" << h << " sampling " << std::hex << hv[0] << "/" << hv[1] << "/"
          << hv[2];
    }
  }
}

}  // namespace
}  // namespace dnj::jpeg
