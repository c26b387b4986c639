#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <utility>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/image.hpp"
#include "image/io.hpp"
#include "image/metrics.hpp"
#include "image/resample.hpp"
#include "simd/dispatch.hpp"

namespace dnj::image {
namespace {

TEST(Image, ConstructsZeroFilled) {
  Image img(5, 7, 3);
  EXPECT_EQ(img.width(), 5);
  EXPECT_EQ(img.height(), 7);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.byte_size(), 5u * 7u * 3u);
  EXPECT_EQ(img.pixel_count(), 35u);
  for (std::uint8_t v : img.data()) EXPECT_EQ(v, 0);
}

TEST(Image, RejectsBadShapes) {
  EXPECT_THROW(Image(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(Image(4, 0, 1), std::invalid_argument);
  EXPECT_THROW(Image(4, 4, 2), std::invalid_argument);
  EXPECT_THROW(Image(4, 4, 4), std::invalid_argument);
}

TEST(Image, InterleavedIndexing) {
  Image img(3, 2, 3);
  img.at(1, 0, 2) = 42;
  EXPECT_EQ(img.data()[(0 * 3 + 1) * 3 + 2], 42);
  img.at(2, 1, 0) = 7;
  EXPECT_EQ(img.data()[(1 * 3 + 2) * 3 + 0], 7);
}

TEST(Image, CheckedAccessThrows) {
  Image img(3, 3, 1);
  EXPECT_THROW(img.at_checked(3, 0), std::out_of_range);
  EXPECT_THROW(img.at_checked(0, 3), std::out_of_range);
  EXPECT_THROW(img.at_checked(0, 0, 1), std::out_of_range);
  EXPECT_NO_THROW(img.at_checked(2, 2, 0));
}

TEST(ClampU8, RoundsAndSaturates) {
  EXPECT_EQ(clamp_u8(-5.0f), 0);
  EXPECT_EQ(clamp_u8(0.4f), 0);
  EXPECT_EQ(clamp_u8(0.6f), 1);
  EXPECT_EQ(clamp_u8(127.5f), 128);  // nearbyint: ties to even
  EXPECT_EQ(clamp_u8(254.6f), 255);
  EXPECT_EQ(clamp_u8(300.0f), 255);
}

TEST(Planes, ToFromPlaneRoundTrip) {
  Image img(9, 5, 3);
  std::mt19937 rng(7);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng() & 0xFF);
  for (int c = 0; c < 3; ++c) {
    const PlaneF p = to_plane(img, c);
    Image back(9, 5, 3);
    from_plane(p, back, c);
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 9; ++x) EXPECT_EQ(back.at(x, y, c), img.at(x, y, c));
  }
}

TEST(Planes, FromPlaneRejectsSmallPlane) {
  Image img(8, 8, 1);
  PlaneF small(4, 4);
  EXPECT_THROW(from_plane(small, img, 0), std::invalid_argument);
}

// --- color ---

TEST(Color, GrayPixelMapsToFlatChroma) {
  const auto ycc = rgb_to_ycbcr(100.0f, 100.0f, 100.0f);
  EXPECT_NEAR(ycc[0], 100.0f, 1e-3f);
  EXPECT_NEAR(ycc[1], 128.0f, 1e-3f);
  EXPECT_NEAR(ycc[2], 128.0f, 1e-3f);
}

TEST(Color, KnownPrimaries) {
  const auto red = rgb_to_ycbcr(255.0f, 0.0f, 0.0f);
  EXPECT_NEAR(red[0], 76.245f, 0.05f);
  const auto blue = rgb_to_ycbcr(0.0f, 0.0f, 255.0f);
  EXPECT_NEAR(blue[0], 29.07f, 0.05f);
  EXPECT_NEAR(blue[1], 255.0f, 0.5f);
}

class ColorRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ColorRoundTrip, PerPixelInverseWithinOneLevel) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const float r = static_cast<float>(rng() % 256);
    const float g = static_cast<float>(rng() % 256);
    const float b = static_cast<float>(rng() % 256);
    const auto ycc = rgb_to_ycbcr(r, g, b);
    const auto rgb = ycbcr_to_rgb(ycc[0], ycc[1], ycc[2]);
    EXPECT_NEAR(rgb[0], r, 1.0f);
    EXPECT_NEAR(rgb[1], g, 1.0f);
    EXPECT_NEAR(rgb[2], b, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(Color, ImageLevelRoundTrip) {
  Image img(17, 11, 3);
  std::mt19937 rng(11);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng() & 0xFF);
  const YCbCrPlanes planes = to_ycbcr(img);
  const Image back = to_rgb(planes, 17, 11);
  EXPECT_LE(max_abs_diff(img, back), 1);
}

TEST(Color, GrayImageYieldsFlatChromaPlanes) {
  Image img(8, 8, 1);
  for (std::uint8_t& v : img.data()) v = 77;
  const YCbCrPlanes planes = to_ycbcr(img);
  EXPECT_FLOAT_EQ(planes.y.at(3, 3), 77.0f);
  EXPECT_FLOAT_EQ(planes.cb.at(3, 3), 128.0f);
  EXPECT_FLOAT_EQ(planes.cr.at(3, 3), 128.0f);
}

// --- blocks ---

TEST(Blocks, PaddedDim) {
  EXPECT_EQ(padded_dim(1), 8);
  EXPECT_EQ(padded_dim(8), 8);
  EXPECT_EQ(padded_dim(9), 16);
  EXPECT_EQ(padded_dim(64), 64);
}

struct BlockDims {
  int w, h;
};

class BlockRoundTrip : public ::testing::TestWithParam<BlockDims> {};

TEST_P(BlockRoundTrip, SplitMergePreservesInterior) {
  const auto [w, h] = GetParam();
  PlaneF plane(w, h);
  std::mt19937 rng(99);
  for (float& v : plane.data()) v = static_cast<float>(rng() % 256);
  int bx = 0, by = 0;
  const auto blocks = split_blocks(plane, &bx, &by);
  EXPECT_EQ(bx, padded_dim(w) / 8);
  EXPECT_EQ(by, padded_dim(h) / 8);
  EXPECT_EQ(blocks.size(), static_cast<std::size_t>(bx) * by);
  const PlaneF merged = merge_blocks(blocks, bx, by);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) EXPECT_FLOAT_EQ(merged.at(x, y), plane.at(x, y));
}

INSTANTIATE_TEST_SUITE_P(Dims, BlockRoundTrip,
                         ::testing::Values(BlockDims{8, 8}, BlockDims{16, 8},
                                           BlockDims{9, 9}, BlockDims{31, 17},
                                           BlockDims{1, 1}, BlockDims{64, 40}));

TEST(Blocks, EdgeReplicationPadding) {
  PlaneF plane(9, 9);
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 9; ++x) plane.at(x, y) = static_cast<float>(x + 10 * y);
  const PlaneF padded = pad_to_blocks(plane);
  EXPECT_EQ(padded.width(), 16);
  EXPECT_EQ(padded.height(), 16);
  // Replicated right edge carries the x = 8 column.
  EXPECT_FLOAT_EQ(padded.at(15, 3), plane.at(8, 3));
  EXPECT_FLOAT_EQ(padded.at(4, 15), plane.at(4, 8));
  EXPECT_FLOAT_EQ(padded.at(15, 15), plane.at(8, 8));
}

TEST(Blocks, LevelShiftInverse) {
  BlockF blk{};
  for (int i = 0; i < kBlockSize; ++i) blk[static_cast<std::size_t>(i)] = static_cast<float>(i);
  BlockF shifted = blk;
  level_shift(shifted);
  EXPECT_FLOAT_EQ(shifted[0], -128.0f);
  level_unshift(shifted);
  for (int i = 0; i < kBlockSize; ++i)
    EXPECT_FLOAT_EQ(shifted[static_cast<std::size_t>(i)], blk[static_cast<std::size_t>(i)]);
}

TEST(Blocks, MergeRejectsBadGrid) {
  std::vector<BlockF> blocks(4);
  EXPECT_THROW(merge_blocks(blocks, 3, 2), std::invalid_argument);
}

// --- resample ---

TEST(Resample, DownsampleAveragesQuads) {
  PlaneF p(4, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) p.at(x, y) = static_cast<float>(4 * y + x);
  const PlaneF d = downsample_2x2(p);
  ASSERT_EQ(d.width(), 2);
  ASSERT_EQ(d.height(), 2);
  EXPECT_FLOAT_EQ(d.at(0, 0), (0 + 1 + 4 + 5) / 4.0f);
  EXPECT_FLOAT_EQ(d.at(1, 1), (10 + 11 + 14 + 15) / 4.0f);
}

TEST(Resample, DownsampleOddTrailing) {
  PlaneF p(3, 3, 6.0f);
  const PlaneF d = downsample_2x2(p);
  EXPECT_EQ(d.width(), 2);
  EXPECT_EQ(d.height(), 2);
  EXPECT_FLOAT_EQ(d.at(1, 1), 6.0f);  // single-sample average
}

TEST(Resample, UpsampleConstantPlaneIsExact) {
  PlaneF p(4, 4, 42.0f);
  const PlaneF up = upsample_2x2(p, 8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_FLOAT_EQ(up.at(x, y), 42.0f);
}

TEST(Resample, UpsampleDimChecks) {
  PlaneF p(4, 4);
  EXPECT_THROW(upsample_2x2(p, 10, 8), std::invalid_argument);
  EXPECT_NO_THROW(upsample_2x2(p, 7, 8));  // ceil(7/2) == 4
}

TEST(Resample, DownUpRoundTripOnSmoothPlane) {
  PlaneF p(16, 16);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) p.at(x, y) = static_cast<float>(x) * 2.0f + y;
  const PlaneF rt = upsample_2x2(downsample_2x2(p), 16, 16);
  for (int y = 2; y < 14; ++y)
    for (int x = 2; x < 14; ++x) EXPECT_NEAR(rt.at(x, y), p.at(x, y), 2.0f);
}

// The per-pixel loops downsample_2x2_into and upsample_2x2 ran before their
// interior/edge split and row kernels, kept verbatim as memcmp oracles.
PlaneF legacy_downsample_2x2(const PlaneF& plane) {
  const int ow = (plane.width() + 1) / 2;
  const int oh = (plane.height() + 1) / 2;
  PlaneF out(ow, oh);
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      float sum = 0.0f;
      int n = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int sx = 2 * x + dx;
          const int sy = 2 * y + dy;
          if (sx < plane.width() && sy < plane.height()) {
            sum += plane.at(sx, sy);
            ++n;
          }
        }
      }
      out.at(x, y) = sum / static_cast<float>(n);
    }
  }
  return out;
}

PlaneF legacy_upsample_2x2(const PlaneF& plane, int out_w, int out_h) {
  PlaneF out(out_w, out_h);
  const int iw = plane.width();
  const int ih = plane.height();
  for (int y = 0; y < out_h; ++y) {
    const float fy = (static_cast<float>(y) + 0.5f) / 2.0f - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, ih - 1);
    const int y1 = std::min(y0 + 1, ih - 1);
    const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < out_w; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) / 2.0f - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, iw - 1);
      const int x1 = std::min(x0 + 1, iw - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      const float top = plane.at(x0, y0) * (1.0f - wx) + plane.at(x1, y0) * wx;
      const float bot = plane.at(x0, y1) * (1.0f - wx) + plane.at(x1, y1) * wx;
      out.at(x, y) = top * (1.0f - wy) + bot * wy;
    }
  }
  return out;
}

PlaneF random_plane(int w, int h, std::uint64_t seed) {
  PlaneF p(w, h);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-300.0f, 300.0f);
  for (float& v : p.data()) v = dist(rng);
  return p;
}

const std::pair<int, int> kResampleSizes[] = {{1, 1}, {2, 1}, {1, 2}, {3, 5},  {5, 3},
                                              {2, 2}, {7, 1}, {1, 9}, {15, 17}, {17, 11},
                                              {33, 31}, {64, 48}, {225, 223}};

TEST(Resample, DownsampleMatchesLegacyLoopBitExact) {
  for (const auto& [w, h] : kResampleSizes) {
    const PlaneF p = random_plane(w, h, 0xD0 + static_cast<std::uint64_t>(w * 1000 + h));
    const PlaneF expect = legacy_downsample_2x2(p);
    PlaneF got;
    downsample_2x2_into(p, got);
    ASSERT_EQ(got.width(), expect.width());
    ASSERT_EQ(got.height(), expect.height());
    EXPECT_EQ(0, std::memcmp(got.data().data(), expect.data().data(),
                             got.size() * sizeof(float)))
        << w << "x" << h;
  }
}

TEST(Resample, UpsampleMatchesLegacyLoopBitExactAtEveryLevel) {
  for (const auto& [w, h] : kResampleSizes) {
    const PlaneF p = random_plane(w, h, 0x0B + static_cast<std::uint64_t>(w * 1000 + h));
    // Both output sizes that ceil-halve to the source: 2w and 2w - 1.
    for (const int out_w : {2 * w, 2 * w - 1}) {
      for (const int out_h : {2 * h, 2 * h - 1}) {
        const PlaneF expect = legacy_upsample_2x2(p, out_w, out_h);
        for (simd::Level l : {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
          if (!simd::set_level(l)) continue;
          const PlaneF got = upsample_2x2(p, out_w, out_h);
          EXPECT_EQ(0, std::memcmp(got.data().data(), expect.data().data(),
                                   got.size() * sizeof(float)))
              << w << "x" << h << " -> " << out_w << "x" << out_h
              << " level=" << simd::level_name(l);
        }
        simd::set_level(simd::max_supported_level());
      }
    }
  }
}

TEST(Resample, ResizeNearestCorners) {
  PlaneF p(2, 2);
  p.at(0, 0) = 1;
  p.at(1, 0) = 2;
  p.at(0, 1) = 3;
  p.at(1, 1) = 4;
  const PlaneF r = resize_nearest(p, 4, 4);
  EXPECT_FLOAT_EQ(r.at(0, 0), 1);
  EXPECT_FLOAT_EQ(r.at(3, 0), 2);
  EXPECT_FLOAT_EQ(r.at(0, 3), 3);
  EXPECT_FLOAT_EQ(r.at(3, 3), 4);
}

// --- io ---

TEST(Io, PgmRoundTrip) {
  Image img(13, 9, 1);
  std::mt19937 rng(3);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng() & 0xFF);
  const std::string path = ::testing::TempDir() + "dnj_test.pgm";
  write_pnm(img, path);
  const Image back = read_pnm(path);
  EXPECT_EQ(img, back);
  std::remove(path.c_str());
}

TEST(Io, PpmRoundTrip) {
  Image img(6, 4, 3);
  std::mt19937 rng(5);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng() & 0xFF);
  const std::string path = ::testing::TempDir() + "dnj_test.ppm";
  write_pnm(img, path);
  const Image back = read_pnm(path);
  EXPECT_EQ(img, back);
  std::remove(path.c_str());
}

TEST(Io, ReadRejectsMissingFile) {
  EXPECT_THROW(read_pnm("/nonexistent/nope.pgm"), std::runtime_error);
}

// --- metrics ---

TEST(Metrics, IdenticalImages) {
  Image a(8, 8, 1);
  for (std::uint8_t& v : a.data()) v = 100;
  EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
  EXPECT_EQ(max_abs_diff(a, a), 0);
}

TEST(Metrics, KnownMse) {
  Image a(2, 1, 1), b(2, 1, 1);
  a.at(0, 0) = 10;
  a.at(1, 0) = 20;
  b.at(0, 0) = 13;
  b.at(1, 0) = 16;
  EXPECT_DOUBLE_EQ(mse(a, b), (9.0 + 16.0) / 2.0);
  EXPECT_EQ(max_abs_diff(a, b), 4);
}

TEST(Metrics, ShapeMismatchThrows) {
  Image a(4, 4, 1), b(4, 4, 3);
  EXPECT_THROW(mse(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace dnj::image
