// Entropy-stage contract tests for the fast paths added with the LUT
// decoder and the restart-parallel scan decode:
//
//  * LUT equivalence — the peek-table Huffman decoder must produce
//    bit-identical coefficient planes and pixels at EVERY table width
//    (including 0 = bit-by-bit reference) across subsampling modes, 16-bit
//    DQT, optimized Huffman tables, restart intervals and odd sizes.
//  * Restart-parallel determinism — decoding a restart-interval stream at
//    any thread count yields byte-identical planes and pixels.
//  * Corrupt-stream hardening — invalid codes, all-ones bit runs,
//    magnitudes past the scan end and broken restart sequences must throw
//    std::runtime_error (and surface as kDecodeError through the api
//    façade), never hang, crash or read out of bounds. Run under the
//    ASan/UBSan CI legs like every other test.
//  * Batched emission — encode_blocks_zz must emit byte-identical streams
//    to per-block encode_block_zz, and the BlockCursor must match the
//    BitWriter bit for bit.
//  * Cursor decode — category-11 DC and category-10 AC magnitudes (fused
//    and not), a run pushing k past the block, and a last code ending on
//    the last bit of the scan decode exactly as at width 0.
//  * SOS-time table build — DHT redefinitions cost no decoder builds; only
//    the tables the scan references are built.
//  * Split entropy stage — banded Huffman emit and the chunked scan
//    decoder (jpeg/pipeline/scan_chunks.hpp) give the serial walk's bytes,
//    pixels and errors at every thread count; a chunk that never syncs is
//    decoded through; the encoder reserves its output from the band sizes.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "api/dnj.hpp"
#include "data/synthetic.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/pipeline/bands.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/zigzag.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {
namespace {

// Every test leaves the process-global LUT width as it found it.
class LutWidthGuard {
 public:
  LutWidthGuard() : saved_(entropy_lut_bits()) {}
  ~LutWidthGuard() { set_entropy_lut_bits(saved_); }

 private:
  int saved_;
};

image::Image synth(int w, int h, int ch, std::uint64_t seed) {
  data::GeneratorConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.channels = ch;
  cfg.seed = seed;
  return data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
}

struct StreamCase {
  const char* name;
  std::vector<std::uint8_t> stream;
};

// One stream per decoder-relevant configuration axis.
std::vector<StreamCase> entropy_stream_cases() {
  std::vector<StreamCase> cases;
  {
    EncoderConfig ec;
    ec.quality = 85;
    ec.subsampling = Subsampling::k444;
    cases.push_back({"gray_444", encode(synth(32, 32, 1, 1), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 90;
    ec.subsampling = Subsampling::k444;
    cases.push_back({"color_444", encode(synth(16, 16, 3, 2), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 75;
    ec.subsampling = Subsampling::k420;
    cases.push_back({"color_420_odd", encode(synth(33, 31, 3, 3), ec)});
  }
  {
    // Steps above 255 force 16-bit DQT entries.
    std::array<std::uint16_t, 64> steps{};
    for (int k = 0; k < 64; ++k)
      steps[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(1 + k * 9);
    EncoderConfig ec;
    ec.use_custom_tables = true;
    ec.luma_table = QuantTable(steps);
    ec.chroma_table = QuantTable(steps);
    ec.subsampling = Subsampling::k444;
    cases.push_back({"dqt16", encode(synth(24, 24, 1, 4), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 85;
    ec.subsampling = Subsampling::k420;
    ec.optimize_huffman = true;  // per-image tables, not the Annex K set
    cases.push_back({"optimized_huffman", encode(synth(32, 24, 3, 5), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 80;
    ec.subsampling = Subsampling::k444;
    ec.restart_interval = 2;
    cases.push_back({"restart_interval", encode(synth(48, 40, 1, 6), ec)});
  }
  {
    EncoderConfig ec;
    ec.quality = 90;
    cases.push_back({"tiny_odd", encode(synth(17, 13, 1, 7), ec)});
  }
  return cases;
}

struct DecodeSnapshot {
  int components = 0;
  std::vector<std::vector<std::int16_t>> planes;
  std::vector<std::uint8_t> pixels;
};

// Decodes through FRESH contexts so the Huffman decoders (and their LUTs)
// are built at the currently configured width.
DecodeSnapshot snapshot_decode(const std::vector<std::uint8_t>& stream, int threads) {
  DecodeSnapshot snap;
  pipeline::CodecContext coeff_ctx;
  const JpegInfo info = decode_coefficients(stream, coeff_ctx, threads);
  snap.components = info.components;
  for (int c = 0; c < info.components; ++c) {
    const auto& plane = coeff_ctx.decode_coeffs[static_cast<std::size_t>(c)];
    snap.planes.emplace_back(plane.data(), plane.data() + plane.block_count() * 64);
  }
  pipeline::CodecContext pixel_ctx;
  snap.pixels = decode(stream, pixel_ctx, threads).data();
  return snap;
}

void expect_snapshots_equal(const DecodeSnapshot& a, const DecodeSnapshot& b,
                            const char* what) {
  ASSERT_EQ(a.components, b.components) << what;
  for (int c = 0; c < a.components; ++c) {
    const auto& pa = a.planes[static_cast<std::size_t>(c)];
    const auto& pb = b.planes[static_cast<std::size_t>(c)];
    ASSERT_EQ(pa.size(), pb.size()) << what << " component " << c;
    EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(std::int16_t)))
        << what << " coefficient planes differ, component " << c;
  }
  EXPECT_EQ(a.pixels, b.pixels) << what << " pixels differ";
}

// ---------------------------------------------------------------------------
// LUT-decoder equivalence
// ---------------------------------------------------------------------------

TEST(EntropyLut, EveryPeekWidthDecodesBitIdentically) {
  LutWidthGuard guard;
  for (const StreamCase& sc : entropy_stream_cases()) {
    set_entropy_lut_bits(0);  // bit-by-bit reference walk
    const DecodeSnapshot reference = snapshot_decode(sc.stream, 1);
    for (const int width : {1, 2, 5, 8, 12}) {
      set_entropy_lut_bits(width);
      SCOPED_TRACE(std::string(sc.name) + " lut_bits=" + std::to_string(width));
      expect_snapshots_equal(reference, snapshot_decode(sc.stream, 1), sc.name);
    }
  }
}

TEST(EntropyLut, WidthKnobClampsAndDisables) {
  LutWidthGuard guard;
  set_entropy_lut_bits(0);
  EXPECT_EQ(entropy_lut_bits(), 0);
  HuffmanDecoder reference(HuffmanSpec::default_ac_luma());
  EXPECT_EQ(reference.lut_bits(), 0);
  set_entropy_lut_bits(99);  // clamped to the 12-bit ceiling
  EXPECT_EQ(entropy_lut_bits(), 12);
  HuffmanDecoder wide(HuffmanSpec::default_ac_luma());
  EXPECT_EQ(wide.lut_bits(), 12);
  set_entropy_lut_bits(-5);
  EXPECT_EQ(entropy_lut_bits(), 0);
}

TEST(EntropyLut, ContextCachesDecodersPerSpecAndWidth) {
  LutWidthGuard guard;
  set_entropy_lut_bits(8);
  pipeline::CodecContext ctx;
  const HuffmanSpec spec = HuffmanSpec::default_ac_luma();
  const HuffmanDecoder& first = ctx.decoder_for(spec);
  const HuffmanDecoder& again = ctx.decoder_for(spec);
  EXPECT_EQ(&first, &again);  // warm hit, no rebuild
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 1u);
  set_entropy_lut_bits(4);  // width change must miss: the LUT shape differs
  const HuffmanDecoder& narrow = ctx.decoder_for(spec);
  EXPECT_NE(&first, &narrow);
  EXPECT_EQ(narrow.lut_bits(), 4);
  EXPECT_EQ(ctx.reuse_counters().huffman_decoder_builds, 2u);
}

// ---------------------------------------------------------------------------
// Restart-parallel determinism
// ---------------------------------------------------------------------------

TEST(RestartParallel, PlanesAndPixelsIdenticalAtEveryThreadCount) {
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 2;
  for (const int channels : {1, 3}) {
    ec.subsampling = channels == 3 ? Subsampling::k420 : Subsampling::k444;
    const std::vector<std::uint8_t> stream =
        encode(synth(48, 40, channels, 11), ec);
    const DecodeSnapshot serial = snapshot_decode(stream, 1);
    for (const int threads : {2, 8}) {
      SCOPED_TRACE("channels=" + std::to_string(channels) +
                   " threads=" + std::to_string(threads));
      expect_snapshots_equal(serial, snapshot_decode(stream, threads), "restart");
    }
  }
}

TEST(RestartParallel, MatchesNonRestartPixels) {
  // The same image with and without restart intervals decodes to the same
  // pixels (restart markers only reset the DC predictor).
  const image::Image img = synth(64, 48, 1, 12);
  EncoderConfig plain;
  plain.quality = 85;
  EncoderConfig restart = plain;
  restart.restart_interval = 3;
  pipeline::CodecContext ctx;
  const image::Image a = decode(encode(img, plain), ctx, 1);
  const image::Image b = decode(encode(img, restart), ctx, 8);
  EXPECT_EQ(a.data(), b.data());
}

// ---------------------------------------------------------------------------
// Corrupt-stream hardening
// ---------------------------------------------------------------------------

// Byte offset of the first entropy-coded scan byte (right after the SOS
// header segment).
std::size_t scan_begin(const std::vector<std::uint8_t>& s) {
  for (std::size_t i = 0; i + 3 < s.size(); ++i) {
    if (s[i] == 0xFF && s[i + 1] == 0xDA) {
      const std::size_t len = (static_cast<std::size_t>(s[i + 2]) << 8) | s[i + 3];
      return i + 2 + len;
    }
  }
  ADD_FAILURE() << "no SOS marker found";
  return s.size();
}

// Offset of the first restart marker (FF D0..D7) at or after `from`.
std::size_t first_rst(const std::vector<std::uint8_t>& s, std::size_t from) {
  for (std::size_t i = from; i + 1 < s.size(); ++i)
    if (s[i] == 0xFF && s[i + 1] >= 0xD0 && s[i + 1] <= 0xD7) return i;
  ADD_FAILURE() << "no RST marker found";
  return s.size();
}

void expect_decode_throws_at_every_width(const std::vector<std::uint8_t>& bytes) {
  LutWidthGuard guard;
  for (const int width : {0, 8, 12}) {
    set_entropy_lut_bits(width);
    SCOPED_TRACE("lut_bits=" + std::to_string(width));
    pipeline::CodecContext ctx;
    EXPECT_THROW((void)decode(bytes, ctx, 1), std::runtime_error);
    pipeline::CodecContext coeff_ctx;
    EXPECT_THROW((void)decode_coefficients(bytes, coeff_ctx, 1), std::runtime_error);
  }
}

std::vector<std::uint8_t> restart_stream() {
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 2;
  return encode(synth(48, 40, 1, 21), ec);
}

TEST(EntropyRobustness, AllOnesScanDataIsRejected) {
  EncoderConfig ec;
  ec.quality = 85;
  std::vector<std::uint8_t> s = encode(synth(32, 32, 1, 22), ec);
  const std::size_t begin = scan_begin(s);
  ASSERT_LT(begin + 2, s.size());
  // Replace the scan body with stuffed 0xFF bytes: the decoder sees an
  // unbroken all-ones bit pattern, which runs past every code length.
  for (std::size_t i = begin; i + 3 < s.size(); i += 2) {
    s[i] = 0xFF;
    s[i + 1] = 0x00;
  }
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, MagnitudeBitsPastScanEndAreRejected) {
  EncoderConfig ec;
  ec.quality = 85;
  const std::vector<std::uint8_t> full = encode(synth(32, 32, 1, 23), ec);
  const std::size_t begin = scan_begin(full);
  // Keep only a few scan bytes, then hit EOI mid-block: the decoder must
  // fail the read (marker inside a magnitude/code) instead of fabricating
  // bits — at every LUT width, including the zero-padded peek path.
  for (const std::size_t keep : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
    ASSERT_LT(begin + keep, full.size());
    std::vector<std::uint8_t> s(full.begin(),
                                full.begin() + static_cast<long>(begin + keep));
    s.push_back(0xFF);
    s.push_back(0xD9);  // EOI
    expect_decode_throws_at_every_width(s);
  }
}

TEST(EntropyRobustness, MissingRestartMarkerIsRejected) {
  std::vector<std::uint8_t> s = restart_stream();
  const std::size_t rst = first_rst(s, scan_begin(s));
  ASSERT_LT(rst + 2, s.size());
  s.erase(s.begin() + static_cast<long>(rst), s.begin() + static_cast<long>(rst) + 2);
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, OutOfSequenceRestartMarkerIsRejected) {
  std::vector<std::uint8_t> s = restart_stream();
  const std::size_t rst = first_rst(s, scan_begin(s));
  ASSERT_LT(rst + 1, s.size());
  // First marker must be RST0; advance its index so the sequence breaks.
  s[rst + 1] = static_cast<std::uint8_t>(0xD0 + ((s[rst + 1] - 0xD0 + 3) % 8));
  expect_decode_throws_at_every_width(s);
}

TEST(EntropyRobustness, FillByteBeforeRestartMarkerIsSkipped) {
  // T.81 B.1.1.2 lets any marker be preceded by 0xFF fill bytes: the
  // padded stream is the same image, at every thread count.
  const std::vector<std::uint8_t> plain = restart_stream();
  std::vector<std::uint8_t> padded = plain;
  const std::size_t rst = first_rst(padded, scan_begin(padded));
  ASSERT_LT(rst + 2, padded.size());
  padded.insert(padded.begin() + static_cast<long>(rst), 0xFF);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    pipeline::CodecContext ctx;
    const image::Image want = decode(plain, ctx, threads);
    image::Image got;
    ASSERT_NO_THROW(got = decode(padded, ctx, threads));
    EXPECT_EQ(got.data(), want.data());
  }
}

TEST(EntropyRobustness, TruncatedScanSweepNeverHangsOrCrashes) {
  LutWidthGuard guard;
  EncoderConfig ec;
  ec.quality = 80;
  ec.restart_interval = 3;
  const std::vector<std::uint8_t> full = encode(synth(40, 33, 1, 24), ec);
  const std::size_t begin = scan_begin(full);
  for (const int width : {0, 8}) {
    set_entropy_lut_bits(width);
    for (std::size_t len = begin + 1; len < full.size(); len += 5) {
      const std::vector<std::uint8_t> prefix(full.begin(),
                                             full.begin() + static_cast<long>(len));
      pipeline::CodecContext ctx;
      try {
        (void)decode(prefix, ctx, 8);
      } catch (const std::runtime_error&) {
        // rejected as corrupt: acceptable, crash/hang/overflow is not
      }
    }
  }
}

TEST(EntropyRobustness, ApiSurfacesTypedDecodeError) {
  api::Session session;
  const api::Codec codec = session.codec();
  EncoderConfig ec;
  ec.quality = 85;
  std::vector<std::uint8_t> ones = encode(synth(32, 32, 1, 25), ec);
  const std::size_t begin = scan_begin(ones);
  for (std::size_t i = begin; i + 3 < ones.size(); i += 2) {
    ones[i] = 0xFF;
    ones[i + 1] = 0x00;
  }
  EXPECT_EQ(codec.decode(ones).status().code(), api::StatusCode::kDecodeError);

  std::vector<std::uint8_t> bad_rst = restart_stream();
  const std::size_t rst = first_rst(bad_rst, scan_begin(bad_rst));
  bad_rst[rst + 1] = static_cast<std::uint8_t>(0xD0 + ((bad_rst[rst + 1] - 0xD0 + 5) % 8));
  EXPECT_EQ(codec.decode(bad_rst).status().code(), api::StatusCode::kDecodeError);
}

// ---------------------------------------------------------------------------
// Batched emission
// ---------------------------------------------------------------------------

// Zig-zag planes exercising every emission shape: dense noise, long zero
// runs (1-3 ZRLs), trailing nonzero at k=63, all-zero blocks, maximum
// magnitudes.
std::vector<std::int16_t> emission_plane(std::uint64_t seed, std::size_t blocks) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(-1023, 1023);
  std::uniform_int_distribution<int> lane(1, 63);
  std::vector<std::int16_t> zz(blocks * 64, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::int16_t* blk = zz.data() + b * 64;
    blk[0] = static_cast<std::int16_t>(val(rng));
    switch (b % 5) {
      case 0:  // dense
        for (int k = 1; k < 64; ++k) blk[k] = static_cast<std::int16_t>(val(rng));
        break;
      case 1:  // sparse: a handful of lanes, long runs between them
        for (int n = 0; n < 3; ++n)
          blk[lane(rng)] = static_cast<std::int16_t>(val(rng) | 1);
        break;
      case 2:  // single trailing coefficient: 62-zero run -> 3 ZRLs + code
        blk[63] = static_cast<std::int16_t>(val(rng) | 1);
        break;
      case 3:  // all-zero AC: DC + EOB only
        break;
      case 4:  // magnitude extremes
        blk[1] = 1023;
        blk[17] = -1023;
        blk[34] = 1;
        blk[63] = -1;
        break;
    }
  }
  return zz;
}

TEST(BatchEncode, MatchesPerBlockBitstream) {
  pipeline::CodecContext ctx;
  const auto& huff = ctx.static_huffman();
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    for (const std::size_t blocks : {std::size_t{1}, std::size_t{7}, std::size_t{160}}) {
      const std::vector<std::int16_t> zz = emission_plane(seed, blocks);
      std::vector<std::uint8_t> per_block, batched;
      {
        BitWriter bw(per_block);
        int dc_pred = 0;
        for (std::size_t b = 0; b < blocks; ++b)
          encode_block_zz(bw, zz.data() + b * 64, dc_pred, huff.dc_luma, huff.ac_luma);
        bw.flush();
      }
      {
        BitWriter bw(batched);
        int dc_pred = 0;
        encode_blocks_zz(bw, zz.data(), blocks, dc_pred, huff.dc_luma, huff.ac_luma);
        bw.flush();
      }
      EXPECT_EQ(per_block, batched) << "seed=" << seed << " blocks=" << blocks;
    }
  }
}

TEST(BatchEncode, BlockCursorMatchesPutBits) {
  // The cursor's overlapping-store emission must be bit-identical to
  // put_bits, including partial-bit carryover across attach/commit cycles
  // and interleaved direct writes.
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<int> count_dist(1, 27);
  std::vector<std::uint8_t> expect, got;
  BitWriter we(expect), wg(got);
  for (int round = 0; round < 50; ++round) {
    // A few direct writes...
    for (int i = 0; i < 3; ++i) {
      const int count = count_dist(rng);
      const std::uint32_t bits =
          static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
      we.put_bits(bits, count);
      wg.put_bits(bits, count);
    }
    // ...then a cursor session with a random number of puts.
    BitWriter::BlockCursor cur(wg);
    const int puts = 1 + static_cast<int>(rng() % 40);
    for (int i = 0; i < puts; ++i) {
      const int count = count_dist(rng);
      const std::uint32_t bits =
          static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
      we.put_bits(bits, count);
      cur.put(bits, count);
    }
    cur.commit();
  }
  we.flush();
  wg.flush();
  EXPECT_EQ(expect, got);
}

// ---------------------------------------------------------------------------
// Cursor decode: fused entries, long magnitudes and exact scan ends
// ---------------------------------------------------------------------------

// Widths the cursor tests sweep: the reference, the narrowest table (no
// code fuses), the old default, the default and the widest.
std::vector<int> cursor_widths() { return {0, 1, 8, entropy_lut_bits(), 12}; }

struct TablePair {
  HuffmanSpec dc, ac;
};

// Per-image optimal tables for `blocks`: frequent symbols get short codes,
// so at wide widths even 10- and 11-bit magnitudes fuse.
TablePair optimal_tables(const std::vector<QuantizedBlock>& blocks) {
  SymbolCounts counts;
  int pred = 0;
  for (const QuantizedBlock& b : blocks) count_block_symbols(b, pred, counts);
  return {HuffmanSpec::build_optimal(counts.dc), HuffmanSpec::build_optimal(counts.ac)};
}

std::vector<std::uint8_t> encode_blocks(const std::vector<QuantizedBlock>& blocks,
                                        const TablePair& t) {
  const HuffmanEncoder dc(t.dc), ac(t.ac);
  std::vector<std::uint8_t> bytes;
  BitWriter bw(bytes);
  int pred = 0;
  for (const QuantizedBlock& b : blocks) encode_block(bw, b, pred, dc, ac);
  bw.flush();
  return bytes;
}

// Decodes `count` blocks at lookup width `width`; false on the first
// rejected block. `br` is left where the decode stopped.
bool decode_blocks(BitReader& br, const TablePair& t, int width, std::size_t count,
                   std::vector<QuantizedBlock>& out) {
  LutWidthGuard guard;
  set_entropy_lut_bits(width);
  const HuffmanDecoder dc(t.dc), ac(t.ac);
  out.assign(count, QuantizedBlock{});
  int pred = 0;
  for (QuantizedBlock& b : out)
    if (!decode_block(br, b, pred, dc, ac)) return false;
  return true;
}

TEST(CursorDecode, Category11DcAndCategory10AcMagnitudes) {
  std::vector<QuantizedBlock> blocks;
  for (int i = 0; i < 24; ++i) {
    QuantizedBlock b{};
    b[0] = static_cast<std::int16_t>(i % 2 == 0 ? 1023 : -1024);  // DC diffs of +-2047
    b[static_cast<std::size_t>(kZigzag[1])] = static_cast<std::int16_t>(i % 3 ? 1023 : -1023);
    b[static_cast<std::size_t>(kZigzag[2 + i])] = static_cast<std::int16_t>(-512 + i);
    b[static_cast<std::size_t>(kZigzag[63])] = static_cast<std::int16_t>(i % 2 ? 1000 : -1000);
    blocks.push_back(b);
  }
  const TablePair annex_k{HuffmanSpec::default_dc_luma(), HuffmanSpec::default_ac_luma()};
  for (const TablePair& t : {annex_k, optimal_tables(blocks)}) {
    const std::vector<std::uint8_t> bytes = encode_blocks(blocks, t);
    for (const int width : cursor_widths()) {
      SCOPED_TRACE("lut_bits=" + std::to_string(width));
      BitReader br(bytes.data(), bytes.size());
      std::vector<QuantizedBlock> got;
      ASSERT_TRUE(decode_blocks(br, t, width, blocks.size(), got));
      EXPECT_EQ(got, blocks);
    }
  }
}

TEST(CursorDecode, RunPastBlockEndIsRejected) {
  // Four (run 15, size 1) symbols: k = 16, 32, 48, then 64 — out of the
  // block. Through the Annex K table (a 16-bit code: symbol path) and an
  // optimal table where the symbol has a short code (fused path).
  for (const bool optimal : {false, true}) {
    TablePair t{HuffmanSpec::default_dc_luma(), HuffmanSpec::default_ac_luma()};
    if (optimal) {
      std::array<std::uint32_t, 256> ac{};
      ac[0xF1] = 100;
      ac[0x00] = 10;
      ac[0x01] = 1;
      std::array<std::uint32_t, 256> dc{};
      dc[0] = 1;
      t = {HuffmanSpec::build_optimal(dc), HuffmanSpec::build_optimal(ac)};
    }
    const HuffmanEncoder dc(t.dc), ac(t.ac);
    std::vector<std::uint8_t> bytes;
    BitWriter bw(bytes);
    dc.encode(bw, 0x00);  // DC diff 0
    for (int i = 0; i < 4; ++i) ac.encode_with_extra(bw, 0xF1, 1, 1);
    bw.put_bits(0, 32);  // plenty of trailing bits: the run, not the end, fails
    bw.flush();
    for (const int width : cursor_widths()) {
      SCOPED_TRACE(std::string(optimal ? "optimal" : "annex_k") +
                   " lut_bits=" + std::to_string(width));
      BitReader br(bytes.data(), bytes.size());
      std::vector<QuantizedBlock> got;
      EXPECT_FALSE(decode_blocks(br, t, width, 1, got));
    }
  }
}

TEST(CursorDecode, FinalCodeEndingExactlyAtScanEnd) {
  // Random blocks whose coded length is a whole number of bytes, so the
  // last code (an EOB, or a fused coefficient at k = 63 with no EOB) ends
  // on the last bit of the data — with and without a marker after it.
  const TablePair t{HuffmanSpec::default_dc_luma(), HuffmanSpec::default_ac_luma()};
  std::mt19937_64 rng(51);
  int found[2] = {0, 0};
  for (int attempt = 0; attempt < 400 && (found[0] < 3 || found[1] < 3); ++attempt) {
    const bool ends_with_coefficient = attempt % 2 == 1;
    std::vector<QuantizedBlock> blocks(1 + rng() % 3);
    for (QuantizedBlock& b : blocks) {
      b[0] = static_cast<std::int16_t>(static_cast<int>(rng() % 200) - 100);
      for (int n = 0; n < 4; ++n)
        b[static_cast<std::size_t>(kZigzag[1 + rng() % 40])] =
            static_cast<std::int16_t>(static_cast<int>(rng() % 9) - 4);
    }
    if (ends_with_coefficient) blocks.back()[static_cast<std::size_t>(kZigzag[63])] = 1;
    std::vector<std::uint8_t> bytes = encode_blocks(blocks, t);
    // Keep only streams the reference decodes with no pad bits left over.
    {
      BitReader br(bytes.data(), bytes.size());
      std::vector<QuantizedBlock> ref;
      ASSERT_TRUE(decode_blocks(br, t, 0, blocks.size(), ref));
      if (br.buffered_bits() + 8 * static_cast<int>(bytes.size() - br.position()) != 0)
        continue;
    }
    ++found[ends_with_coefficient ? 1 : 0];
    for (const bool marker : {false, true}) {
      std::vector<std::uint8_t> s = bytes;
      if (marker) s.insert(s.end(), {0xFF, 0xD9});
      for (const int width : cursor_widths()) {
        SCOPED_TRACE("attempt " + std::to_string(attempt) + " marker=" +
                     std::to_string(marker) + " lut_bits=" + std::to_string(width));
        BitReader br(s.data(), s.size());
        std::vector<QuantizedBlock> got;
        ASSERT_TRUE(decode_blocks(br, t, width, blocks.size(), got));
        EXPECT_EQ(got, blocks);
        EXPECT_EQ(br.buffered_bits(), 0);
        EXPECT_EQ(br.position(), bytes.size());
      }
    }
  }
  EXPECT_GE(found[0], 3);
  EXPECT_GE(found[1], 3);
}

// ---------------------------------------------------------------------------
// Decoder tables are built at SOS, for the referenced slots only
// ---------------------------------------------------------------------------

// One DHT segment holding `tables` two-symbol tables, cycling through
// seventeen distinct symbol pairs, all into DC slot `slot`.
std::vector<std::uint8_t> junk_dht(int tables, int slot) {
  std::vector<std::uint8_t> body;
  for (int i = 0; i < tables; ++i) {
    body.push_back(static_cast<std::uint8_t>(slot));  // class 0 (DC), index
    for (int l = 1; l <= 16; ++l) body.push_back(l == 1 ? 2 : 0);
    body.push_back(static_cast<std::uint8_t>(i % 17));
    body.push_back(static_cast<std::uint8_t>(i % 17 + 1));
  }
  const std::size_t len = body.size() + 2;
  std::vector<std::uint8_t> seg = {0xFF, 0xC4, static_cast<std::uint8_t>(len >> 8),
                                   static_cast<std::uint8_t>(len & 0xFF)};
  seg.insert(seg.end(), body.begin(), body.end());
  return seg;
}

TEST(SosTableBuild, BuildsOnlyReferencedTables) {
  for (const int channels : {1, 3}) {
    EncoderConfig ec;
    ec.quality = 85;
    const std::vector<std::uint8_t> plain = encode(synth(40, 32, channels, 61), ec);
    // Many redefinitions of slot 0 ahead of the stream's own DHT (the real
    // tables overwrite them), and of slot 3 (never referenced) after it,
    // right before SOS: tables built as they were defined would cycle the
    // context's sixteen-slot cache under the real ones.
    // SOS: marker (2), length (2), count (1), 2 per component, 3 trailing.
    const std::size_t sos = scan_begin(plain) - 8 - 2 * static_cast<std::size_t>(channels);
    ASSERT_EQ(plain[sos + 1], 0xDA);
    const std::vector<std::uint8_t> ahead = junk_dht(600, 0), behind = junk_dht(600, 3);
    std::vector<std::uint8_t> s(plain.begin(), plain.begin() + 2);
    s.insert(s.end(), ahead.begin(), ahead.end());
    s.insert(s.end(), plain.begin() + 2, plain.begin() + static_cast<long>(sos));
    s.insert(s.end(), behind.begin(), behind.end());
    s.insert(s.end(), plain.begin() + static_cast<long>(sos), plain.end());

    pipeline::CodecContext ref_ctx, ctx;
    const image::Image expect = decode(plain, ref_ctx, 1);
    EXPECT_EQ(decode(s, ctx, 1).data(), expect.data());
    // Gray references one DC and one AC table; colour two of each.
    EXPECT_LE(ctx.reuse_counters().huffman_decoder_builds, channels == 1 ? 2u : 4u);
    // Header-only parses build nothing at all.
    const pipeline::CodecContext& thread_ctx = pipeline::thread_codec_context();
    const std::uint64_t before = thread_ctx.reuse_counters().huffman_decoder_builds;
    (void)parse_info(s);
    EXPECT_EQ(thread_ctx.reuse_counters().huffman_decoder_builds, before);
  }
}

TEST(SosTableBuild, InvalidTableInUnreferencedSlotStillFails) {
  EncoderConfig ec;
  ec.quality = 85;
  const std::vector<std::uint8_t> plain = encode(synth(16, 16, 1, 62), ec);
  // Slot 3 with three 1-bit codes: violates the Kraft inequality.
  std::vector<std::uint8_t> s(plain.begin(), plain.begin() + 2);
  s.insert(s.end(), {0xFF, 0xC4, 0x00, 0x16, 0x03, 0x03});
  for (int l = 2; l <= 16; ++l) s.push_back(0);
  s.insert(s.end(), {0x00, 0x01, 0x02});
  s.insert(s.end(), plain.begin() + 2, plain.end());
  try {
    (void)decode(s);
    ADD_FAILURE() << "invalid DHT decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid Huffman table"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Split entropy stage: banded emit, chunked scan decode
// ---------------------------------------------------------------------------

// Smooth texture plus noise, so every block carries AC energy.
image::Image textured(int w, int h, int channels, std::uint64_t seed) {
  image::Image img(w, h, channels);
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

// Chunks the decoder cut `stream`'s scan into, decoding on 4 threads.
std::vector<pipeline::ScanChunk> chunks_of(const std::vector<std::uint8_t>& stream) {
  pipeline::CodecContext ctx;
  (void)decode_coefficients(stream, ctx, 4);
  return ctx.decode_chunks;
}

TEST(SplitEntropy, BytesAndPixelsMatchTheSerialWalkAcrossModesRestartsLevelsAndThreads) {
  // 768x432: two or more emit bands and two or more scan chunks in every
  // mode (asserted below), small enough to cross every axis.
  struct Mode {
    const char* name;
    int channels;
    Subsampling sub;
    int mcus_x, mcus_y, blocks_per_mcu;
  };
  const Mode modes[] = {{"gray", 1, Subsampling::k444, 96, 54, 1},
                        {"444", 3, Subsampling::k444, 96, 54, 3},
                        {"420", 3, Subsampling::k420, 48, 27, 6}};
  pipeline::CodecContext ctx;
  for (const Mode& mode : modes) {
    const image::Image img = textured(768, 432, mode.channels, 0x5B1 + mode.channels);
    for (const int ri : {0, 1, 7, mode.mcus_x}) {
      EncoderConfig cfg;
      cfg.quality = 90;
      cfg.subsampling = mode.sub;
      cfg.restart_interval = ri;
      cfg.optimize_huffman = ri == 7;
      const std::vector<std::uint8_t> want = encode_reference(img, cfg);
      const DecodeSnapshot want_decode = snapshot_decode(want, 1);
      if (ri == 0) {
        const pipeline::BandPlan plan(
            static_cast<std::size_t>(mode.mcus_x * mode.blocks_per_mcu), mode.mcus_y);
        EXPECT_GE(plan.bands(), 2) << mode.name;
        EXPECT_GE(chunks_of(want).size(), 2u) << mode.name;
      }
      for (const simd::Level level :
           {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
        if (!simd::set_level(level)) continue;
        for (int threads = 1; threads <= 4; ++threads) {
          SCOPED_TRACE(std::string(mode.name) + " ri=" + std::to_string(ri) + " level=" +
                       simd::level_name(level) + " threads=" + std::to_string(threads));
          EXPECT_EQ(encode(img, cfg, ctx, threads), want);
          expect_snapshots_equal(want_decode, snapshot_decode(want, threads), mode.name);
        }
      }
      simd::set_level(simd::max_supported_level());
    }
  }
}

// What a decode gave: the pixels, or the error text.
struct Outcome {
  bool ok = false;
  std::vector<std::uint8_t> pixels;
  std::string error;
  bool operator==(const Outcome& o) const {
    return ok == o.ok && pixels == o.pixels && error == o.error;
  }
};

Outcome decode_outcome(const std::vector<std::uint8_t>& bytes, int threads) {
  Outcome o;
  pipeline::CodecContext ctx;
  try {
    o.pixels = decode(bytes, ctx, threads).data();
    o.ok = true;
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

// Every thread count gives the 1-thread decode's pixels or its error.
void expect_thread_invariant_outcome(const std::vector<std::uint8_t>& bytes,
                                     const std::string& what) {
  const Outcome serial = decode_outcome(bytes, 1);
  for (int threads = 2; threads <= 4; ++threads)
    EXPECT_TRUE(decode_outcome(bytes, threads) == serial)
        << what << " threads=" << threads << " serial: "
        << (serial.ok ? "decoded" : serial.error);
}

// A 1080p-class 4:2:0 q90 stream without restart markers, and the offsets
// (from the start of the stream) at which its scan chunks begin.
struct SplitStream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> cuts;
};

const SplitStream& split_stream() {
  static const SplitStream s = [] {
    SplitStream out;
    EncoderConfig cfg;
    cfg.quality = 90;
    cfg.subsampling = Subsampling::k420;
    out.bytes = encode(synth(1920, 1080, 3, 0x1080), cfg);
    const std::size_t begin = scan_begin(out.bytes);
    for (const pipeline::ScanChunk& c : chunks_of(out.bytes)) out.cuts.push_back(begin + c.begin);
    return out;
  }();
  return s;
}

TEST(SplitEntropy, CorruptByteGivesTheSerialOutcome) {
  const SplitStream& s = split_stream();
  ASSERT_GE(s.cuts.size(), 3u);
  const std::size_t eoi = s.bytes.size() - 2;
  // Inside the second chunk, and inside the last one.
  for (const std::size_t at : {(s.cuts[1] + s.cuts[2]) / 2, (s.cuts.back() + eoi) / 2}) {
    for (const std::uint8_t flip : {0x01, 0x10, 0x80}) {
      std::vector<std::uint8_t> bad = s.bytes;
      bad[at] ^= flip;
      if (bad[at] == 0xFF) continue;  // keep the stuffing valid
      expect_thread_invariant_outcome(bad, "flip " + std::to_string(flip) + " at " +
                                               std::to_string(at));
    }
  }
}

TEST(SplitEntropy, TruncationAtEveryCutGivesTheSerialError) {
  const SplitStream& s = split_stream();
  for (const std::size_t cut : s.cuts) {
    const std::vector<std::uint8_t> prefix(s.bytes.begin(),
                                           s.bytes.begin() + static_cast<long>(cut));
    const Outcome serial = decode_outcome(prefix, 1);
    EXPECT_FALSE(serial.ok) << "cut " << cut;
    expect_thread_invariant_outcome(prefix, "truncated at " + std::to_string(cut));
  }
}

TEST(SplitEntropy, ExtraBytesAfterTheLastMcuStillDecode) {
  const SplitStream& s = split_stream();
  // Several chunks' worth of junk between the last MCU and EOI: the
  // speculative chunks in it fail, and no failure may surface.
  std::vector<std::uint8_t> padded(s.bytes.begin(), s.bytes.end() - 2);
  std::mt19937_64 rng(77);
  for (std::size_t i = 0; i < 3 * pipeline::kMinChunkBytes; ++i) {
    const auto b = static_cast<std::uint8_t>(rng());
    padded.push_back(b);
    if (b == 0xFF) padded.push_back(0x00);
  }
  padded.push_back(0xFF);
  padded.push_back(0xD9);
  const std::size_t last_mcu_end = s.bytes.size() - 2 - scan_begin(s.bytes);
  ASSERT_GT(chunks_of(padded).back().begin, last_mcu_end);  // a chunk of junk only
  const Outcome want = decode_outcome(s.bytes, 1);
  ASSERT_TRUE(want.ok);
  for (int threads = 1; threads <= 4; ++threads)
    EXPECT_TRUE(decode_outcome(padded, threads) == want) << "threads=" << threads;
}

TEST(SplitEntropy, ChunkThatNeverSyncsIsDecodedThrough) {
  // Fill bytes (0xFF in front of a stuffed 0xFF 00) change no data bit.
  // A run of them long enough to hold a cut, placed right after a data
  // byte a cut lands on, leaves that chunk two data bytes: too few block
  // starts to sync with, so the exact decode runs through it.
  const SplitStream& s = split_stream();
  const std::size_t begin = scan_begin(s.bytes);
  const std::size_t blocks = 120 * 68 * 6;
  const Outcome want = decode_outcome(s.bytes, 1);
  ASSERT_TRUE(want.ok);
  bool reached = false;
  for (std::size_t p = begin + 2; p + 1 < s.bytes.size() - 2 && !reached; ++p) {
    // A stuffed pair at p whose two bytes in front are plain data.
    if (s.bytes[p] != 0xFF || s.bytes[p + 1] != 0x00 || s.bytes[p - 1] == 0xFF ||
        s.bytes[p - 2] == 0xFF)
      continue;
    const std::size_t scan = s.bytes.size() - begin;
    const std::size_t d = p - 1 - begin;  // the data byte, as a scan offset
    for (std::size_t n = pipeline::chunk_count(scan, blocks);
         n <= pipeline::chunk_count(2 * scan, blocks) && !reached; ++n) {
      for (std::size_t c = 1; c < n && !reached; ++c) {
        // The fewest fill bytes F that put cut c on the data byte
        // (c * (scan + F) / n == d), with cut c + 1 inside the fill run
        // or the pair after it.
        const std::size_t padded_scan = (d * n + c - 1) / c;
        if (padded_scan <= scan) continue;
        const std::size_t fill = padded_scan - scan;
        const std::size_t next = (c + 1) * padded_scan / n;
        if (c * padded_scan / n != d || pipeline::chunk_count(padded_scan, blocks) != n ||
            next < d + 1 || next > d + 2 + fill)
          continue;
        std::vector<std::uint8_t> padded = s.bytes;
        padded.insert(padded.begin() + static_cast<long>(p), fill, 0xFF);
        const std::vector<pipeline::ScanChunk> chunks = chunks_of(padded);
        if (chunks.size() <= c || chunks[c].begin != d || chunks[c].placed != 0) continue;
        reached = true;
        for (int threads = 1; threads <= 4; ++threads)
          EXPECT_TRUE(decode_outcome(padded, threads) == want) << "threads=" << threads;
      }
    }
  }
  EXPECT_TRUE(reached) << "no candidate reached the no-sync path";
}

TEST(SplitEntropy, EncoderReservesFromTheBandSizes) {
  // A 1080p 4:4:4 encode with custom (DeepN-style) tables: dozens of
  // bands, a stream of tens of KB.
  EncoderConfig cfg;
  cfg.use_custom_tables = true;
  std::array<std::uint16_t, 64> luma{}, chroma{};
  for (int k = 0; k < 64; ++k) {
    luma[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(8 + 4 * k);
    chroma[static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(16 + 6 * k);
  }
  cfg.luma_table = QuantTable(luma);
  cfg.chroma_table = QuantTable(chroma);
  cfg.subsampling = Subsampling::k444;
  pipeline::CodecContext ctx;
  for (const int threads : {1, 4}) {
    const std::vector<std::uint8_t> out = encode(synth(1920, 1080, 3, 0x444), cfg, ctx, threads);
    EXPECT_LE(out.capacity(), out.size() + out.size() / 16 + 2048)
        << "threads=" << threads << " size=" << out.size();
  }
}

}  // namespace
}  // namespace dnj::jpeg
