// Failure-injection tests: the decoder must reject (throw) — never crash,
// hang, or read out of bounds — on truncated, bit-flipped, and shuffled
// streams. Sanitizer-friendly by construction: every mutation is exercised
// through the public decode API.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "api/session.hpp"
#include "data/synthetic.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/pipeline/codec_context.hpp"

namespace dnj::jpeg {
namespace {

std::vector<std::uint8_t> reference_stream() {
  data::GeneratorConfig cfg;
  cfg.width = 48;
  cfg.height = 40;
  cfg.seed = 99;
  const image::Image img =
      data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
  EncoderConfig ec;
  ec.quality = 80;
  return encode(img, ec);
}

// Decode must either succeed or throw std::runtime_error; anything else
// (crash, std::bad_alloc from a bogus size, etc.) is a failure.
void expect_graceful(const std::vector<std::uint8_t>& bytes) {
  try {
    const image::Image img = decode(bytes);
    // If it decoded, the geometry must be sane.
    EXPECT_GT(img.width(), 0);
    EXPECT_GT(img.height(), 0);
    EXPECT_LE(img.width(), 65535);
    EXPECT_LE(img.height(), 65535);
  } catch (const std::runtime_error&) {
    // acceptable: rejected as corrupt
  }
}

class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, EveryPrefixIsHandled) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Sweep a band of prefix lengths determined by the parameter decile.
  const std::size_t begin = full.size() * static_cast<std::size_t>(GetParam()) / 10;
  const std::size_t end = full.size() * static_cast<std::size_t>(GetParam() + 1) / 10;
  for (std::size_t len = begin; len < end; len += 7) {
    std::vector<std::uint8_t> prefix(full.begin(), full.begin() + static_cast<long>(len));
    expect_graceful(prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Deciles, TruncationSweep, ::testing::Range(0, 10));

class BitFlipSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitFlipSweep, RandomSingleByteCorruptions) {
  const std::vector<std::uint8_t> full = reference_stream();
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    expect_graceful(mutated);
  }
}

TEST_P(BitFlipSweep, RandomMultiByteCorruptions) {
  const std::vector<std::uint8_t> full = reference_stream();
  std::mt19937_64 rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    const int flips = 2 + static_cast<int>(rng() % 12);
    for (int f = 0; f < flips; ++f)
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng() & 0xFF);
    expect_graceful(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitFlipSweep, ::testing::Range<std::uint64_t>(1, 6));

TEST(Robustness, HeaderFieldMutations) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Targeted corruption of every byte in the header region (through SOS).
  const std::size_t header_len = std::min<std::size_t>(full.size(), 700);
  for (std::size_t pos = 2; pos < header_len; ++pos) {
    std::vector<std::uint8_t> mutated = full;
    mutated[pos] ^= 0xFF;
    expect_graceful(mutated);
  }
}

TEST(Robustness, ZeroLengthSegments) {
  // DQT with segment length 2 (no payload) then EOI: must throw, not loop.
  const std::vector<std::uint8_t> stream = {0xFF, 0xD8, 0xFF, 0xDB, 0x00, 0x02,
                                            0xFF, 0xD9};
  expect_graceful(stream);
}

TEST(Robustness, RepeatedSoi) {
  std::vector<std::uint8_t> full = reference_stream();
  std::vector<std::uint8_t> doubled;
  doubled.reserve(full.size() + 2);
  doubled.push_back(0xFF);
  doubled.push_back(0xD8);
  doubled.insert(doubled.end(), full.begin(), full.end());
  expect_graceful(doubled);
}

TEST(Robustness, AllBytesSame) {
  for (int b : {0x00, 0xFF, 0xD8, 0x42}) {
    std::vector<std::uint8_t> stream(256, static_cast<std::uint8_t>(b));
    expect_graceful(stream);
  }
}

TEST(Robustness, ScanDataReplacedWithNoise) {
  const std::vector<std::uint8_t> full = reference_stream();
  // Find SOS and randomize everything after its header.
  std::size_t sos = 0;
  for (std::size_t i = 0; i + 1 < full.size(); ++i)
    if (full[i] == 0xFF && full[i + 1] == 0xDA) {
      sos = i;
      break;
    }
  ASSERT_GT(sos, 0u);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    for (std::size_t i = sos + 14; i < mutated.size() - 2; ++i)
      mutated[i] = static_cast<std::uint8_t>(rng() & 0xFF);
    expect_graceful(mutated);
  }
}

TEST(Robustness, PatchedSamplingFactorsAreTypedErrors) {
  // A 4:2:0 colour stream. Re-label its SOF sampling bytes
  // to layouts the decoder does not reconstruct (4:2:2 and 4:4:0 luma,
  // chroma denser than luma): the scan no longer matches its header, so
  // decode may fail in the entropy stage or in reconstruction, but always
  // with std::runtime_error and, through the api, kDecodeError.
  data::GeneratorConfig gen;
  gen.width = 48;
  gen.height = 40;
  gen.channels = 3;
  gen.seed = 99;
  const image::Image img =
      data::SyntheticDatasetGenerator(gen).render(data::ClassKind::kBandNoise, 0);
  EncoderConfig ec;
  ec.quality = 80;
  ec.subsampling = Subsampling::k420;
  const std::vector<std::uint8_t> full = encode(img, ec);
  std::size_t sof = 0;
  for (std::size_t i = 0; i + 1 < full.size(); ++i)
    if (full[i] == 0xFF && full[i + 1] == 0xC0) {
      sof = i;
      break;
    }
  ASSERT_GT(sof, 0u);
  // FF C0, length (2), precision, height (2), width (2), count, then
  // (id, sampling, table) per component.
  const std::size_t hv0 = sof + 11;
  ASSERT_EQ(full[sof + 9], 3);
  ASSERT_EQ(full[hv0], 0x22);
  ASSERT_EQ(full[hv0 + 3], 0x11);
  ASSERT_EQ(full[hv0 + 6], 0x11);
  api::Session session;
  const api::Codec codec = session.codec();
  for (const std::array<std::uint8_t, 3>& hv :
       {std::array<std::uint8_t, 3>{0x21, 0x11, 0x11}, std::array<std::uint8_t, 3>{0x12, 0x11, 0x11},
        std::array<std::uint8_t, 3>{0x11, 0x22, 0x22}, std::array<std::uint8_t, 3>{0x11, 0x11, 0x22},
        std::array<std::uint8_t, 3>{0x22, 0x21, 0x11}, std::array<std::uint8_t, 3>{0x22, 0x11, 0x12}}) {
    std::vector<std::uint8_t> patched = full;
    for (std::size_t c = 0; c < 3; ++c) patched[hv0 + 3 * c] = hv[c];
    EXPECT_THROW(decode(patched), std::runtime_error)
        << std::hex << int{hv[0]} << "/" << int{hv[1]} << "/" << int{hv[2]};
    EXPECT_EQ(codec.decode(patched).status().code(), api::StatusCode::kDecodeError)
        << std::hex << int{hv[0]} << "/" << int{hv[1]} << "/" << int{hv[2]};
  }
  // Relabelled to layouts the decoder does reconstruct (full-resolution
  // chroma, one plane full and one half): any outcome but a crash is fine.
  for (const std::array<std::uint8_t, 3>& hv :
       {std::array<std::uint8_t, 3>{0x22, 0x22, 0x22}, std::array<std::uint8_t, 3>{0x22, 0x22, 0x11},
        std::array<std::uint8_t, 3>{0x11, 0x11, 0x11}}) {
    std::vector<std::uint8_t> patched = full;
    for (std::size_t c = 0; c < 3; ++c) patched[hv0 + 3 * c] = hv[c];
    expect_graceful(patched);
  }
}

TEST(Robustness, HugeDeclaredFrameFailsBeforeSizingArenas) {
  // A small stream whose SOF claims 65535 x 65535 pixels: the scan holds
  // far fewer than the two bits per block the frame needs, so decode must
  // throw before sizing the coefficient arenas (gigabytes at that size),
  // not after.
  std::vector<std::uint8_t> s = reference_stream();
  std::size_t sof = 0;
  for (std::size_t i = 0; i + 1 < s.size(); ++i)
    if (s[i] == 0xFF && s[i + 1] == 0xC0) {
      sof = i;
      break;
    }
  ASSERT_GT(sof, 0u);
  for (std::size_t i = sof + 5; i < sof + 9; ++i) s[i] = 0xFF;  // height, width
  EXPECT_EQ(parse_info(s).width, 65535);
  pipeline::CodecContext ctx;
  EXPECT_THROW((void)decode(s, ctx, 1), std::runtime_error);
  EXPECT_EQ(ctx.decode_coeffs[0].block_count(), 0u);
}

}  // namespace
}  // namespace dnj::jpeg
