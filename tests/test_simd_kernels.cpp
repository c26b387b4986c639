// Exhaustive scalar-vs-SIMD bit-equivalence suite for the kernel layer.
//
// Every kernel in simd::KernelTable is run at each supported SIMD level and
// compared bit-for-bit (memcmp on the raw output bytes, not EXPECT_NEAR)
// against the scalar level on the same inputs — odd block counts, plane
// sizes that exercise edge replication, quantizer boundary values, GEMM
// shapes that hit every vector-tail path. This is the enforcement half of
// the determinism contract documented in simd/dispatch.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/image.hpp"
#include "image/metrics.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "simd/dispatch.hpp"

namespace dnj::simd {
namespace {

std::vector<Level> simd_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (set_level(l)) out.push_back(l);
  set_level(max_supported_level());
  return out;
}

/// Runs `fn` once per supported SIMD level (scalar excluded) with the level
/// pinned, restoring the auto level afterwards.
template <typename Fn>
void for_each_simd_level(Fn&& fn) {
  for (Level l : simd_levels()) {
    ASSERT_TRUE(set_level(l));
    fn(l);
  }
  set_level(max_supported_level());
}

std::vector<float> random_blocks(std::size_t count, std::uint64_t seed,
                                 float lo = -2048.0f, float hi = 2048.0f) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(count * 64);
  for (float& v : out) v = dist(rng);
  return out;
}

TEST(SimdKernels, FdctBatchMatchesScalarBitExact) {
  for (std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{64}}) {
    const std::vector<float> input = random_blocks(count, 0xF0 + count, -128.0f, 127.0f);
    std::vector<float> expect = input;
    jpeg::fdct_batch_scalar(expect.data(), count);
    for_each_simd_level([&](Level l) {
      std::vector<float> got = input;
      kernels().fdct_batch(got.data(), count);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " count=" << count;
    });
  }
}

TEST(SimdKernels, IdctBatchMatchesScalarBitExact) {
  for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
    const std::vector<float> input = random_blocks(count, 0x1D + count);
    std::vector<float> expect = input;
    jpeg::idct_batch_scalar(expect.data(), count);
    for_each_simd_level([&](Level l) {
      std::vector<float> got = input;
      kernels().idct_batch(got.data(), count);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " count=" << count;
    });
  }
}

TEST(SimdKernels, QuantizeZigzagMatchesScalarIncludingBoundaries) {
  const std::size_t count = 9;
  std::vector<float> coeffs = random_blocks(count, 0x9A);
  // Round-half-even boundaries and clamp extremes in the first block.
  const float specials[] = {0.5f,      -0.5f,   1.5f,     2.5f,    -2.5f,
                            32767.4f,  32768.0f, 40000.0f, -40000.0f, -32768.5f,
                            1e30f,     -1e30f,  0.0f,     -0.0f,   127.5f,
                            -127.5f};
  for (std::size_t i = 0; i < sizeof(specials) / sizeof(specials[0]); ++i)
    coeffs[i] = specials[i];
  for (const jpeg::QuantTable& table :
       {jpeg::QuantTable::annex_k_luma(), jpeg::QuantTable::uniform(1),
        jpeg::QuantTable::uniform(255)}) {
    const jpeg::ReciprocalTable recip(table);
    std::vector<std::int16_t> expect(count * 64);
    set_level(Level::kScalar);
    jpeg::quantize_zigzag_batch(coeffs.data(), count, recip, expect.data());
    for_each_simd_level([&](Level l) {
      std::vector<std::int16_t> got(count * 64);
      jpeg::quantize_zigzag_batch(coeffs.data(), count, recip, got.data());
      EXPECT_EQ(got, expect) << "level=" << level_name(l);
    });
  }
}

TEST(SimdKernels, DequantizeBatchMatchesScalar) {
  const std::size_t count = 7;
  std::mt19937_64 rng(0xDE);
  std::vector<std::int16_t> q(count * 64);
  for (std::int16_t& v : q) v = static_cast<std::int16_t>(rng());
  const jpeg::QuantTable table = jpeg::QuantTable::annex_k_luma().scaled(35);
  std::vector<float> expect(count * 64);
  set_level(Level::kScalar);
  jpeg::dequantize_batch(q.data(), count, table, expect.data());
  for_each_simd_level([&](Level l) {
    std::vector<float> got(count * 64);
    jpeg::dequantize_batch(q.data(), count, table, got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
        << "level=" << level_name(l);
  });
}

TEST(SimdKernels, TileAndUntileMatchScalarOnOddSizes) {
  // Sizes that exercise full blocks, right/bottom edge replication, and
  // grids wider than the padded plane (the 4:2:0 luma case).
  const struct {
    int w, h, gbx, gby;
  } cases[] = {{32, 32, 4, 4}, {13, 9, 2, 2}, {8, 8, 2, 2}, {31, 17, 4, 3}};
  for (const auto& c : cases) {
    image::PlaneF plane(c.w, c.h);
    std::mt19937_64 rng(0x71E + c.w);
    std::uniform_real_distribution<float> dist(0.0f, 255.0f);
    for (float& v : plane.data()) v = dist(rng);

    std::vector<float> expect(static_cast<std::size_t>(c.gbx) * c.gby * 64);
    set_level(Level::kScalar);
    image::tile_blocks_into(plane, c.gbx, c.gby, expect.data(), -128.0f);
    image::PlaneF expect_back(c.w, c.h);
    image::untile_blocks_from(expect.data(), c.gbx, c.gby, expect_back, 128.0f);

    for_each_simd_level([&](Level l) {
      std::vector<float> got(expect.size());
      image::tile_blocks_into(plane, c.gbx, c.gby, got.data(), -128.0f);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "tile level=" << level_name(l) << " w=" << c.w << " h=" << c.h;
      image::PlaneF back(c.w, c.h);
      image::untile_blocks_from(got.data(), c.gbx, c.gby, back, 128.0f);
      EXPECT_EQ(back.data(), expect_back.data())
          << "untile level=" << level_name(l) << " w=" << c.w << " h=" << c.h;
    });
  }
}

TEST(SimdKernels, TileImageMatchesScalarForGrayAndRgb) {
  for (int channels : {1, 3}) {
    image::Image img(29, 13, channels);
    std::mt19937_64 rng(0x3C + channels);
    for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng());
    const int gbx = 4, gby = 2;
    for (int c = 0; c < channels; ++c) {
      std::vector<float> expect(static_cast<std::size_t>(gbx) * gby * 64);
      set_level(Level::kScalar);
      image::tile_image_blocks_into(img, c, gbx, gby, expect.data(), -128.0f);
      for_each_simd_level([&](Level l) {
        std::vector<float> got(expect.size());
        image::tile_image_blocks_into(img, c, gbx, gby, got.data(), -128.0f);
        EXPECT_EQ(0,
                  std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
            << "level=" << level_name(l) << " channels=" << channels << " c=" << c;
      });
    }
  }
}

TEST(SimdKernels, ColorTransformsMatchScalarBitExact) {
  // Odd width forces the vector tail; the pixel values sweep all bytes.
  image::Image img(37, 11, 3);
  std::mt19937_64 rng(0xC0102);
  for (std::uint8_t& v : img.data()) v = static_cast<std::uint8_t>(rng());

  set_level(Level::kScalar);
  const image::YCbCrPlanes expect = image::to_ycbcr(img);
  const image::Image expect_rgb = image::to_rgb(expect, img.width(), img.height());

  for_each_simd_level([&](Level l) {
    const image::YCbCrPlanes got = image::to_ycbcr(img);
    EXPECT_EQ(got.y.data(), expect.y.data()) << "level=" << level_name(l);
    EXPECT_EQ(got.cb.data(), expect.cb.data()) << "level=" << level_name(l);
    EXPECT_EQ(got.cr.data(), expect.cr.data()) << "level=" << level_name(l);
    const image::Image rgb = image::to_rgb(got, img.width(), img.height());
    EXPECT_EQ(rgb, expect_rgb) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, PlaneToU8MatchesClampU8) {
  // from_plane on a grayscale image dispatches the row kernel; values cover
  // negatives, overshoots, and .5 ties (round-half-even).
  image::PlaneF plane(21, 3);
  std::mt19937_64 rng(0xF8);
  std::uniform_real_distribution<float> dist(-64.0f, 320.0f);
  for (float& v : plane.data()) v = dist(rng);
  plane.data()[0] = 0.5f;
  plane.data()[1] = 1.5f;
  plane.data()[2] = 254.5f;
  plane.data()[3] = 255.5f;
  plane.data()[4] = -0.5f;

  image::Image expect(21, 3, 1);
  set_level(Level::kScalar);
  image::from_plane(plane, expect, 0);
  for_each_simd_level([&](Level l) {
    image::Image got(21, 3, 1);
    image::from_plane(plane, got, 0);
    EXPECT_EQ(got, expect) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, MseIsExactAndLevelIndependent) {
  image::Image a(45, 23, 3), b(45, 23, 3);
  std::mt19937_64 rng(0x55E);
  for (std::uint8_t& v : a.data()) v = static_cast<std::uint8_t>(rng());
  for (std::uint8_t& v : b.data()) v = static_cast<std::uint8_t>(rng());

  // Reference: exact integer sum.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const int d = static_cast<int>(a.data()[i]) - static_cast<int>(b.data()[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  const double expect =
      static_cast<double>(sum) / static_cast<double>(a.data().size());

  set_level(Level::kScalar);
  EXPECT_EQ(image::mse(a, b), expect);
  for_each_simd_level([&](Level l) {
    EXPECT_EQ(image::mse(a, b), expect) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, QuantErrorBlockMatchesScalar) {
  const std::vector<float> block = random_blocks(1, 0x5AE);
  double steps[64];
  std::mt19937_64 rng(0x5AF);
  for (double& s : steps) s = static_cast<double>(1 + rng() % 255);
  double expect[64];
  set_level(Level::kScalar);
  kernels().quant_error_block(block.data(), steps, expect);
  for_each_simd_level([&](Level l) {
    double got[64];
    kernels().quant_error_block(block.data(), steps, got);
    EXPECT_EQ(0, std::memcmp(got, expect, sizeof(got))) << "level=" << level_name(l);
  });
}

TEST(SimdKernels, GemmAccMatchesScalarOnTailShapes) {
  // Shapes hit the 4x(2W) register tile, the single-row tail, and the
  // scalar column tail at both vector widths; zeros exercise the skip.
  const struct {
    int m, k, n;
  } shapes[] = {{4, 8, 16}, {5, 7, 19}, {1, 3, 35}, {13, 2, 5}, {8, 288, 49}};
  std::mt19937_64 rng(0x6E);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> at(static_cast<std::size_t>(s.k) * s.m);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c0(static_cast<std::size_t>(s.m) * s.n);
    for (float& v : a) v = (rng() % 5 == 0) ? 0.0f : dist(rng);  // exercise skip
    for (float& v : b) v = dist(rng);
    for (float& v : c0) v = dist(rng);
    for (int kk = 0; kk < s.k; ++kk)
      for (int i = 0; i < s.m; ++i)
        at[static_cast<std::size_t>(kk) * s.m + i] =
            a[static_cast<std::size_t>(i) * s.k + kk];

    std::vector<float> expect = c0, expect_t = c0;
    set_level(Level::kScalar);
    kernels().gemm_acc(a.data(), b.data(), expect.data(), s.m, s.k, s.n);
    kernels().gemm_at_acc(at.data(), b.data(), expect_t.data(), s.m, s.k, s.n);
    // The transposed variant accumulates the same products in the same
    // per-element order, so even the two scalar paths agree exactly.
    EXPECT_EQ(0, std::memcmp(expect.data(), expect_t.data(),
                             expect.size() * sizeof(float)));

    for_each_simd_level([&](Level l) {
      std::vector<float> got = c0, got_t = c0;
      kernels().gemm_acc(a.data(), b.data(), got.data(), s.m, s.k, s.n);
      kernels().gemm_at_acc(at.data(), b.data(), got_t.data(), s.m, s.k, s.n);
      EXPECT_EQ(0,
                std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "gemm_acc level=" << level_name(l) << " m=" << s.m << " n=" << s.n;
      EXPECT_EQ(0, std::memcmp(got_t.data(), expect_t.data(),
                               got_t.size() * sizeof(float)))
          << "gemm_at_acc level=" << level_name(l) << " m=" << s.m << " n=" << s.n;
    });
  }
}

TEST(SimdKernels, NonzeroMaskI16MatchesReferencePredicate) {
  std::mt19937_64 rng(0x4A5);
  for (int c = 0; c < 64; ++c) {
    alignas(16) std::int16_t v[64] = {};
    switch (c % 5) {
      case 0:  // all zero
        break;
      case 1:  // dense random (some lanes still zero by chance)
        for (std::int16_t& x : v)
          x = static_cast<std::int16_t>(rng() % 7 == 0 ? 0 : rng());
        break;
      case 2:  // single lane set, swept across the block
        v[c % 64] = 1;
        break;
      case 3:  // extremes: INT16_MIN must not read as zero
        v[0] = -32768;
        v[31] = 32767;
        v[63] = -1;
        break;
      case 4:  // every lane nonzero
        for (std::int16_t& x : v) x = static_cast<std::int16_t>(rng() | 1);
        break;
    }
    std::uint64_t expect = 0;
    for (int k = 0; k < 64; ++k)
      if (v[k] != 0) expect |= 1ull << k;
    set_level(Level::kScalar);
    EXPECT_EQ(kernels().nonzero_mask_i16_64(v), expect) << "scalar case=" << c;
    for_each_simd_level([&](Level l) {
      EXPECT_EQ(kernels().nonzero_mask_i16_64(v), expect)
          << "level=" << level_name(l) << " case=" << c;
    });
  }
}

TEST(SimdKernels, StuffBytesMatchesReferenceOnFfPatterns) {
  std::mt19937_64 rng(0x57F);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});                                     // empty
  inputs.push_back(std::vector<std::uint8_t>(40, 0xFF));    // worst case: all stuffed
  inputs.push_back(std::vector<std::uint8_t>(96, 0x12));    // fast path: no 0xFF at all
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{100}, std::size_t{4097}}) {
    std::vector<std::uint8_t> in(n);
    for (std::uint8_t& b : in)
      b = static_cast<std::uint8_t>(rng() % 4 == 0 ? 0xFF : rng());
    inputs.push_back(std::move(in));
  }
  {
    // 0xFF exactly at vector-chunk boundaries, nowhere else.
    std::vector<std::uint8_t> in(70, 0x00);
    for (const std::size_t i : {std::size_t{0}, std::size_t{15}, std::size_t{16},
                                std::size_t{31}, std::size_t{32}, std::size_t{63},
                                std::size_t{69}})
      in[i] = 0xFF;
    inputs.push_back(std::move(in));
  }
  for (std::size_t ci = 0; ci < inputs.size(); ++ci) {
    const std::vector<std::uint8_t>& in = inputs[ci];
    std::vector<std::uint8_t> expect;
    expect.reserve(2 * in.size() + 1);  // non-null data() even for the empty input
    for (const std::uint8_t b : in) {
      expect.push_back(b);
      if (b == 0xFF) expect.push_back(0x00);
    }
    const auto run = [&](Level l) {
      std::vector<std::uint8_t> dst(in.size() * 2 + 1, 0xAB);
      const std::size_t written = kernels().stuff_bytes(in.data(), in.size(), dst.data());
      ASSERT_EQ(written, expect.size()) << "level=" << level_name(l) << " case=" << ci;
      EXPECT_EQ(0, std::memcmp(dst.data(), expect.data(), written))
          << "level=" << level_name(l) << " case=" << ci;
      EXPECT_EQ(dst[written], 0xAB)  // no write past the reported length
          << "level=" << level_name(l) << " case=" << ci;
    };
    set_level(Level::kScalar);
    run(Level::kScalar);
    for_each_simd_level(run);
  }
}

/// image::upsample_2x2's per-pixel horizontal rule, written out the way the
/// pre-kernel loop computed it (floor, clamped taps, a * (1 - w) + b * w).
float bilinear_column(const float* src, int iw, int x) {
  const float fx = (static_cast<float>(x) + 0.5f) / 2.0f - 0.5f;
  const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, iw - 1);
  const int x1 = std::min(x0 + 1, iw - 1);
  const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
  return src[x0] * (1.0f - wx) + src[x1] * wx;
}

TEST(SimdKernels, Upsample2xRowMatchesBilinearRuleOnEveryLength) {
  // Output lengths 1..67 cover both parities of every source width 1..34:
  // iw 1 and 2 (edge columns only), every vector tail at 4 and 8 lanes.
  // Sources are sized exactly, so an over-read trips the sanitizer legs.
  std::mt19937_64 rng(0x2A2);
  std::uniform_real_distribution<float> dist(-300.0f, 300.0f);
  for (int out_w = 1; out_w <= 67; ++out_w) {
    const int iw = (out_w + 1) / 2;
    std::vector<float> src(static_cast<std::size_t>(iw));
    for (float& v : src) v = dist(rng);
    std::vector<float> expect(static_cast<std::size_t>(out_w));
    for (int x = 0; x < out_w; ++x)
      expect[static_cast<std::size_t>(x)] = bilinear_column(src.data(), iw, x);
    const auto run = [&](Level l) {
      std::vector<float> got(static_cast<std::size_t>(out_w));
      kernels().upsample2x_row(src.data(), iw, got.data(), out_w);
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
          << "level=" << level_name(l) << " out_w=" << out_w << " iw=" << iw;
    };
    set_level(Level::kScalar);
    run(Level::kScalar);
    for_each_simd_level(run);
  }
  set_level(max_supported_level());
}

TEST(SimdKernels, BlendRowsMatchesScalarOnEveryLength) {
  std::mt19937_64 rng(0xB1E);
  std::uniform_real_distribution<float> dist(-300.0f, 300.0f);
  for (int n = 1; n <= 67; ++n) {
    std::vector<float> top(static_cast<std::size_t>(n)), bot(static_cast<std::size_t>(n));
    for (float& v : top) v = dist(rng);
    for (float& v : bot) v = dist(rng);
    // The weights upsample_2x2 uses, plus an arbitrary one.
    for (float w : {0.0f, 0.25f, 0.75f, 1.0f, 0.3f}) {
      std::vector<float> expect(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < expect.size(); ++i)
        expect[i] = top[i] * (1.0f - w) + bot[i] * w;
      const auto run = [&](Level l) {
        std::vector<float> got(static_cast<std::size_t>(n));
        kernels().blend_rows(top.data(), bot.data(), w, n, got.data());
        EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)))
            << "level=" << level_name(l) << " n=" << n << " w=" << w;
      };
      set_level(Level::kScalar);
      run(Level::kScalar);
      for_each_simd_level(run);
    }
  }
  set_level(max_supported_level());
}

}  // namespace
}  // namespace dnj::simd
