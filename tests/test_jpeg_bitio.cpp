#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "jpeg/bitio.hpp"
#include "jpeg/markers.hpp"

namespace dnj::jpeg {
namespace {

TEST(BitWriter, MsbFirstOrder) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b101, 3);
  bw.put_bits(0b00110, 5);
  bw.flush();  // bits drain in batches; flush before inspecting
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0b10100110);
}

TEST(BitWriter, FlushPadsWithOnes) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b0, 1);
  bw.flush();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0b01111111);
}

TEST(BitWriter, StuffsFFBytes) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xFF, 8);
  bw.flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0xFF);
  EXPECT_EQ(out[1], 0x00);
}

TEST(BitWriter, BatchedDrainStuffsEveryFFInWord) {
  // Four 0xFF data bytes written as 32 accumulated bits must each get a
  // stuffing 0x00 when the batch drains.
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xFFFF, 16);
  bw.put_bits(0xFFFF, 16);
  bw.flush();
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 8; i += 2) {
    EXPECT_EQ(out[i], 0xFF);
    EXPECT_EQ(out[i + 1], 0x00);
  }
}

TEST(BitWriter, MarkerIsNotStuffed) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0x5, 3);
  bw.put_marker(kEOI);
  ASSERT_EQ(out.size(), 3u);  // padded byte + FF D9
  EXPECT_EQ(out[1], 0xFF);
  EXPECT_EQ(out[2], kEOI);
}

TEST(BitWriter, RejectsBadCount) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  EXPECT_THROW(bw.put_bits(0, 33), std::invalid_argument);
  EXPECT_THROW(bw.put_bits(0, -1), std::invalid_argument);
}

TEST(BitWriter, FullWidthWrite) {
  // 32-bit writes carry a fused Huffman code + magnitude field.
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0xDEADBEEFu, 32);
  bw.flush();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0xDE);
  EXPECT_EQ(out[1], 0xAD);
  EXPECT_EQ(out[2], 0xBE);
  EXPECT_EQ(out[3], 0xEF);
}

TEST(BitReader, ReadsBackWrittenBits) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  bw.put_bits(0b1101, 4);
  bw.put_bits(0xABC, 12);
  bw.put_bits(0x3FFFF, 18);  // includes FF bytes to exercise stuffing
  bw.flush();
  BitReader br(out.data(), out.size());
  EXPECT_EQ(br.get_bits(4), 0b1101);
  EXPECT_EQ(br.get_bits(12), 0xABC);
  EXPECT_EQ(br.get_bits(18), 0x3FFFF);
}

class BitIoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitIoRoundTrip, RandomChunks) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::pair<std::uint32_t, int>> chunks;
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  for (int i = 0; i < 300; ++i) {
    const int count = static_cast<int>(rng() % 24) + 1;
    const std::uint32_t bits = static_cast<std::uint32_t>(rng()) & ((1u << count) - 1u);
    chunks.emplace_back(bits, count);
    bw.put_bits(bits, count);
  }
  bw.flush();
  BitReader br(out.data(), out.size());
  for (const auto& [bits, count] : chunks)
    ASSERT_EQ(static_cast<std::uint32_t>(br.get_bits(count)), bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoRoundTrip, ::testing::Range<std::uint64_t>(1, 9));

TEST(BitReader, StopsAtMarker) {
  const std::vector<std::uint8_t> data = {0xAA, 0xFF, kEOI};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bits(8), 0xAA);
  EXPECT_EQ(br.get_bits(8), -1);  // marker, not data
  EXPECT_TRUE(br.at_marker());
  EXPECT_EQ(br.peek_marker(), kEOI);
  EXPECT_EQ(br.take_marker(), kEOI);
}

TEST(BitReader, UnstuffsData) {
  const std::vector<std::uint8_t> data = {0xFF, 0x00, 0x12};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bits(8), 0xFF);
  EXPECT_EQ(br.get_bits(8), 0x12);
}

TEST(BitReader, SkipsFillBytesBeforeMarker) {
  const std::vector<std::uint8_t> data = {0xFF, 0xFF, 0xFF, kEOI};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.peek_marker(), kEOI);
  EXPECT_EQ(br.take_marker(), kEOI);
}

TEST(BitReader, EndOfDataReturnsMinusOne) {
  const std::vector<std::uint8_t> data = {0x80};
  BitReader br(data.data(), data.size());
  EXPECT_EQ(br.get_bit(), 1);
  EXPECT_EQ(br.get_bits(8), -1);
}

// ---------------------------------------------------------------------------
// ReadCursor: the register-resident window must deliver exactly the bits
// get_bits delivers, stop where it stops, and hand back exact state.
// ---------------------------------------------------------------------------

// `n` random data bytes with no 0xFF (callers place stuffing and markers).
std::vector<std::uint8_t> plain_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng() % 0xFF);
  return v;
}

// Reads `bytes` to exhaustion in random chunks of 1..31 bits through
// get_bits and through a ReadCursor (refilled only when short, like the
// block decoder). Both must deliver the same values, run dry on the same
// chunk with the same bits left over, and stop at the same byte.
void expect_cursor_matches_get_bits(const std::vector<std::uint8_t>& bytes,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  BitReader ref(bytes.data(), bytes.size());
  BitReader under(bytes.data(), bytes.size());
  BitReader::ReadCursor cur(under);
  for (;;) {
    const int n = 1 + static_cast<int>(rng() % 31);
    const std::int32_t expect = ref.get_bits(n);
    if (cur.bits() < n) cur.refill();
    if (expect < 0) {
      EXPECT_LT(cur.bits(), n);
      EXPECT_EQ(cur.bits(), ref.buffered_bits());
      break;
    }
    ASSERT_GE(cur.bits(), n);
    ASSERT_EQ(static_cast<std::int32_t>(cur.take(n)), expect);
  }
  cur.commit();
  EXPECT_EQ(under.position(), ref.position());
  EXPECT_EQ(under.buffered_bits(), ref.buffered_bits());
}

TEST(ReadCursor, StuffedByteAtEveryOffset) {
  for (std::size_t off = 0; off <= 40; ++off) {
    std::vector<std::uint8_t> s = plain_bytes(40, off);
    s.insert(s.begin() + static_cast<long>(off), {0xFF, 0x00});
    SCOPED_TRACE("offset " + std::to_string(off));
    expect_cursor_matches_get_bits(s, off);
    s.insert(s.end(), {0xFF, kEOI});
    expect_cursor_matches_get_bits(s, off + 100);
  }
}

TEST(ReadCursor, FillBytesBeforeStuffingAndMarkers) {
  for (std::size_t off = 0; off <= 24; ++off) {
    std::vector<std::uint8_t> s = plain_bytes(24, off + 7);
    // FF FF 00: one fill byte, then a stuffed 0xFF data byte.
    s.insert(s.begin() + static_cast<long>(off), {0xFF, 0xFF, 0x00});
    s.insert(s.end(), {0xFF, 0xFF, 0xFF, kEOI});  // fill bytes, then EOI
    SCOPED_TRACE("offset " + std::to_string(off));
    expect_cursor_matches_get_bits(s, off);
  }
}

TEST(ReadCursor, MarkerAtEveryOffset) {
  for (std::size_t off = 0; off <= 40; ++off) {
    std::vector<std::uint8_t> s = plain_bytes(40, off + 50);
    s[(off * 7) % s.size()] = 0xFF;  // a stuffed byte somewhere, too
    s.insert(s.begin() + static_cast<long>((off * 7) % s.size()) + 1, 0x00);
    s.insert(s.begin() + static_cast<long>(off), {0xFF, 0xD3});  // RST3
    SCOPED_TRACE("offset " + std::to_string(off));
    expect_cursor_matches_get_bits(s, off);
    // Nothing past the marker is delivered, however often refill runs.
    BitReader br(s.data(), s.size());
    BitReader::ReadCursor cur(br);
    cur.refill();
    while (cur.bits() > 0) {
      cur.skip(std::min(cur.bits(), 7));
      cur.refill();
    }
    cur.refill();
    EXPECT_EQ(cur.bits(), 0);
    cur.commit();
    EXPECT_EQ(br.peek_marker(), 0xD3);
  }
}

TEST(ReadCursor, TruncatedEnds) {
  std::vector<std::uint8_t> full = plain_bytes(30, 9);
  full.insert(full.begin() + 11, {0xFF, 0x00});
  full.insert(full.begin() + 20, {0xFF, 0xFF, 0x00});
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::vector<std::uint8_t> s(full.begin(), full.begin() + static_cast<long>(len));
    SCOPED_TRACE("length " + std::to_string(len));
    expect_cursor_matches_get_bits(s, len);
  }
  // A lone trailing 0xFF is not data: neither reader delivers it.
  std::vector<std::uint8_t> lone = plain_bytes(12, 10);
  lone.push_back(0xFF);
  expect_cursor_matches_get_bits(lone, 3);
}

TEST(ReadCursor, CommitRoundTripsPositionAndBufferedBits) {
  const std::vector<std::uint8_t> s = plain_bytes(64, 11);  // no stuffing
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    BitReader br(s.data(), s.size());
    BitReader ref(s.data(), s.size());
    int consumed = 0;
    // Alternate cursor sessions with direct get_bits reads.
    for (int session = 0; session < 4; ++session) {
      BitReader::ReadCursor cur(br);
      const int reads = static_cast<int>(rng() % 6);
      for (int i = 0; i < reads; ++i) {
        const int n = 1 + static_cast<int>(rng() % 24);
        if (cur.bits() < n) cur.refill();
        ASSERT_GE(cur.bits(), n);
        ASSERT_EQ(static_cast<std::int32_t>(cur.take(n)), ref.get_bits(n));
        consumed += n;
      }
      cur.commit();
      // Exact accounting: every byte read is either consumed or buffered.
      EXPECT_EQ(8 * static_cast<int>(br.position()) - br.buffered_bits(), consumed);
      BitReader::ReadCursor again(br);  // reload sees the committed state
      EXPECT_EQ(again.bits(), br.buffered_bits());
      const int n = 1 + static_cast<int>(rng() % 9);
      ASSERT_EQ(br.get_bits(n), ref.get_bits(n));
      consumed += n;
    }
  }
}

// Reads `bytes` to exhaustion in random chunks through get_bits and a
// ReadCursor; after every read both report as their bit_position() the
// data bits consumed so far, whatever stuffing, fill or marker lies ahead.
void expect_bit_positions_count_data_bits(const std::vector<std::uint8_t>& bytes,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  BitReader ref(bytes.data(), bytes.size());
  BitReader under(bytes.data(), bytes.size());
  BitReader::ReadCursor cur(under);
  std::uint64_t consumed = 0;
  for (;;) {
    const int n = 1 + static_cast<int>(rng() % 31);
    if (ref.get_bits(n) < 0) break;
    if (cur.bits() < n) cur.refill();
    ASSERT_GE(cur.bits(), n);
    cur.skip(n);
    consumed += static_cast<std::uint64_t>(n);
    ASSERT_EQ(ref.bit_position(), consumed);
    ASSERT_EQ(cur.bit_position(), consumed);
  }
  cur.commit();
  EXPECT_EQ(under.bit_position(), consumed);
}

TEST(ReadCursor, BitPositionCountsDataBitsOnly) {
  for (std::size_t off = 0; off <= 24; ++off) {
    std::vector<std::uint8_t> s = plain_bytes(24, off + 3);
    s.insert(s.begin() + static_cast<long>(off), {0xFF, 0x00});        // stuffed
    s.insert(s.begin() + static_cast<long>(off / 2), {0xFF, 0xFF, 0x00});  // fill + stuffed
    s.insert(s.end(), {0xFF, 0xFF, kEOI});  // fill, then a marker
    SCOPED_TRACE("offset " + std::to_string(off));
    expect_bit_positions_count_data_bits(s, off);
  }
}

// ---------------------------------------------------------------------------
// Splicing: bands written raw and joined with put_bytes at any bit offset
// give the stream one writer gives.
// ---------------------------------------------------------------------------

struct Field {
  std::uint32_t bits;
  int count;
};

// Random fields, 0xFF-heavy so the stuffing runs.
std::vector<Field> random_fields(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Field> f(n);
  for (Field& x : f) {
    x.count = 1 + static_cast<int>(rng() % 27);
    const std::uint32_t v = rng() % 3 == 0 ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng());
    x.bits = v & ((1u << x.count) - 1u);
  }
  return f;
}

TEST(BitWriter, PutBytesAtEveryBitOffsetMatchesPutBits) {
  for (int lead = 0; lead < 8; ++lead) {
    for (const std::size_t n : {0, 1, 7, 8, 9, 100, 5000, 9000}) {
      const std::vector<std::uint8_t> src = plain_bytes(n, n + static_cast<std::size_t>(lead));
      std::vector<std::uint8_t> expect, got;
      BitWriter we(expect), wg(got);
      we.put_bits(0x2Bu & ((1u << lead) - 1u), lead);
      wg.put_bits(0x2Bu & ((1u << lead) - 1u), lead);
      for (const std::uint8_t b : src) we.put_bits(b, 8);
      wg.put_bytes(src.data(), src.size());
      we.put_bits(5, 3);
      wg.put_bits(5, 3);
      we.flush();
      wg.flush();
      EXPECT_EQ(expect, got) << "lead=" << lead << " n=" << n;
    }
  }
}

TEST(BitWriter, RawBandsSplicedMatchOneWriter) {
  const std::vector<Field> fields = random_fields(6000, 21);
  std::vector<std::uint8_t> expect;
  {
    BitWriter w(expect);
    for (const Field& f : fields) w.put_bits(f.bits, f.count);
    w.put_marker(kEOI);
  }
  for (const std::size_t band_fields : {1, 13, 700, 6000}) {
    std::vector<std::uint8_t> got;
    BitWriter splice(got);
    for (std::size_t first = 0; first < fields.size(); first += band_fields) {
      std::vector<std::uint8_t> band;
      BitWriter raw(band, BitWriter::Stuffing::kRaw);
      for (std::size_t i = first; i < std::min(fields.size(), first + band_fields); ++i)
        raw.put_bits(fields[i].bits, fields[i].count);
      const BitWriter::Tail tail = raw.take_tail();
      ASSERT_LT(tail.count, 8);
      splice.put_bytes(band.data(), band.size());
      splice.put_bits(tail.bits, tail.count);
    }
    splice.put_marker(kEOI);
    EXPECT_EQ(expect, got) << "fields per band " << band_fields;
  }
}

TEST(Markers, Predicates) {
  EXPECT_TRUE(is_rst(0xD0));
  EXPECT_TRUE(is_rst(0xD7));
  EXPECT_FALSE(is_rst(kEOI));
  EXPECT_TRUE(is_app(0xE0));
  EXPECT_TRUE(is_app(0xEF));
  EXPECT_FALSE(is_app(kSOS));
}

}  // namespace
}  // namespace dnj::jpeg
