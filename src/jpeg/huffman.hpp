// Canonical Huffman coding for baseline JPEG: the Annex K default tables,
// encode/decode table derivation (T.81 Annexes C and F), and the optimal
// table construction from symbol statistics (T.81 K.2) used when the encoder
// is configured with `optimize_huffman` — the paper's CR numbers depend on
// real entropy coding, so this is implemented in full rather than stubbed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "jpeg/bitio.hpp"

namespace dnj::jpeg {

/// The (BITS, HUFFVAL) specification pair of T.81: counts[l] = number of
/// codes of length l (1-based, l in [1,16]) and the symbol values in order
/// of increasing code length.
struct HuffmanSpec {
  std::array<std::uint8_t, 17> counts{};  // counts[0] unused
  std::vector<std::uint8_t> symbols;

  /// Total number of symbols.
  int symbol_count() const;
  /// Validates the Kraft inequality and symbol bounds; throws on violation.
  void validate() const;

  // Annex K.3 default tables.
  static HuffmanSpec default_dc_luma();
  static HuffmanSpec default_ac_luma();
  static HuffmanSpec default_dc_chroma();
  static HuffmanSpec default_ac_chroma();

  /// Builds an optimal spec from symbol frequencies (index = symbol value,
  /// 256 entries), limiting code length to 16 bits exactly as libjpeg's
  /// jpeg_gen_optimal_table does. Symbols with zero frequency get no code.
  static HuffmanSpec build_optimal(const std::array<std::uint32_t, 256>& freq);
};

/// Width in bits of the lookup table HuffmanDecoder builds (0 disables the
/// table entirely — pure bit-by-bit reference decoding). Resolved once from
/// the DNJ_ENTROPY_LUT_BITS environment variable (clamped to [0, 12],
/// default 11); set_entropy_lut_bits overrides it for tests and benches.
/// The width only affects decode *speed*: decoded output is bit-identical
/// at every width. Takes effect for decoders constructed after the call;
/// not safe to call concurrently with decoding.
int entropy_lut_bits();
void set_entropy_lut_bits(int bits);

/// Encoder-side lookup: code and length per symbol value.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const HuffmanSpec& spec);

  /// Writes the code for `symbol`; throws std::invalid_argument if the
  /// symbol has no code in this table. Inline: one call per entropy-coded
  /// symbol.
  void encode(BitWriter& bw, std::uint8_t symbol) const {
    const std::uint32_t e = packed_[symbol];  // (code << 8) | length
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    bw.put_bits(e >> 8, static_cast<int>(e & 0xFFu));
  }

  /// Writes the code for `symbol` immediately followed by `extra_count`
  /// magnitude bits in one put_bits call (16 + 11 bits worst case) —
  /// the same bitstream as encode() then put_bits(), with half the calls.
  void encode_with_extra(BitWriter& bw, std::uint8_t symbol, std::uint32_t extra,
                         int extra_count) const {
    const std::uint32_t e = packed_[symbol];  // one load covers code + length
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    bw.put_bits(((e >> 8) << extra_count) | extra,
                static_cast<int>(e & 0xFFu) + extra_count);
  }

  /// Writes `zrls` consecutive ZRL (0xF0) codes, zrls in [1, 3] — every
  /// run length 16..63 needs at most three — as one precomputed packed
  /// field (<= 48 bits) through the 64-bit accumulator. Identical bits to
  /// `zrls` encode(bw, 0xF0) calls. Throws std::invalid_argument if the
  /// table has no ZRL code.
  void encode_zrl_run(BitWriter& bw, int zrls) const {
    if (zrls < 1 || zrls > 3 || zrl_len_[zrls] == 0)
      throw std::invalid_argument("HuffmanEncoder: bad ZRL run");
    bw.put_bits64(zrl_bits_[zrls], zrl_len_[zrls]);
  }

  // BlockCursor variants of the three emitters above: same bitstream, but
  // through the register-resident per-block window. These are the zigzag
  // coder's innermost calls.
  void encode(BitWriter::BlockCursor& c, std::uint8_t symbol) const {
    const std::uint32_t e = packed_[symbol];
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    c.put(e >> 8, static_cast<int>(e & 0xFFu));
  }
  void encode_with_extra(BitWriter::BlockCursor& c, std::uint8_t symbol,
                         std::uint32_t extra, int extra_count) const {
    const std::uint32_t e = packed_[symbol];
    if ((e & 0xFFu) == 0)
      throw std::invalid_argument("HuffmanEncoder: symbol has no code");
    c.put(((e >> 8) << extra_count) | extra, static_cast<int>(e & 0xFFu) + extra_count);
  }
  void encode_zrl_run(BitWriter::BlockCursor& c, int zrls) const {
    if (zrls < 1 || zrls > 3 || zrl_len_[zrls] == 0)
      throw std::invalid_argument("HuffmanEncoder: bad ZRL run");
    c.put(zrl_bits_[zrls], zrl_len_[zrls]);  // <= 48 bits, one write
  }

  int code_length(std::uint8_t symbol) const {
    return static_cast<int>(packed_[symbol] & 0xFFu);
  }
  bool has_code(std::uint8_t symbol) const { return (packed_[symbol] & 0xFFu) != 0; }

 private:
  // (code << 8) | length per symbol value: the hot path reads one 32-bit
  // entry instead of separate code and size arrays (length 0 = no code).
  std::array<std::uint32_t, 256> packed_{};
  // Precomputed packed ZRL runs: zrl_bits_[k] holds k repetitions of the
  // 0xF0 code, zrl_len_[k] their total length (0 when the table has no ZRL).
  std::array<std::uint64_t, 4> zrl_bits_{};
  std::array<std::uint8_t, 4> zrl_len_{};
};

/// T.81 F.2.2.1 EXTEND: the signed value of a `size`-bit magnitude field,
/// size in [1, 15] (a leading 0 bit encodes a negative value). Branchless:
/// coefficient signs are noise-like, so a sign branch would mispredict
/// half the time.
inline int extend_magnitude(int raw, int size) {
  const int negative = -static_cast<int>(raw < (1 << (size - 1)));  // 0 or -1
  return raw + (negative & (1 - (1 << size)));
}

/// Decoder-side tables: MINCODE/MAXCODE/VALPTR (T.81 F.2.2.3) plus a
/// 2^W-entry lookup table over the next W = lut_bits() bits of the stream
/// (libjpeg-turbo's jdhuff.c fast path). Each entry is one packed word:
///
///  * fused — the window starts with a code of size category s >= 1
///    whose code length plus s magnitude bits fit in W: the entry holds
///    the sign-extended value, the run (the symbol's high nibble) and the
///    total length, so the whole coefficient costs one lookup;
///  * symbol — a code of <= W bits that does not fuse (EOB, ZRL, a
///    magnitude too long for the window): the symbol and the code length;
///  * empty — no code of <= W bits is a prefix of the window.
///
/// Symbols are read the AC way (run << 4 | size); a DC table's symbols
/// are plain sizes, which read as run 0. Empty entries and codes longer
/// than W take the MAXCODE walk over the cursor window, and a window near
/// a marker or the end of data takes the bit-by-bit decode().
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(const HuffmanSpec& spec);

  /// Reads one symbol bit by bit; returns -1 on truncated/invalid stream.
  /// This is the reference path (and the only path when lut_bits() == 0).
  int decode(BitReader& br) const;

  /// The lookup entry for the next lut_bits() bits of `window` (a
  /// ReadCursor window). Precondition: lut_bits() > 0.
  std::uint32_t lookup(std::uint64_t window) const { return lut_[window >> lut_shift_]; }

  /// Bits a fused entry consumes (code plus magnitude). Every non-fused
  /// entry reads above 64, so `fused_length(e) <= cursor.bits()` is the
  /// whole fast-path test — it also rejects a fused code that runs past
  /// the bits really buffered in front of a marker.
  static int fused_length(std::uint32_t e) { return static_cast<int>(e & 0xFFu); }
  /// Zero-run in front of a fused coefficient (0 for every DC size).
  static int fused_run(std::uint32_t e) { return static_cast<int>((e >> 8) & 0xFFu); }
  /// Sign-extended coefficient value of a fused entry.
  static int fused_value(std::uint32_t e) {
    return static_cast<std::int16_t>(static_cast<std::uint16_t>(e >> 16));
  }

  /// Decodes the symbol at the cursor whose lookup entry `e` did not fuse
  /// (or fused past the buffered bits) and consumes its code. Same symbol
  /// and same consumed bits as decode() on the same stream, including
  /// corrupt ones; -1 on an invalid or truncated code.
  int decode_symbol(BitReader::ReadCursor& c, std::uint32_t e) const {
    const std::uint32_t t = e & 0xFFu;
    // Symbol entries read 0x80 | code length: one unsigned compare accepts
    // a code of length 1..bits() and rejects fused and empty entries.
    if (t - (kNotFused + 1) < static_cast<std::uint32_t>(c.bits())) {
      c.skip(static_cast<int>(t - kNotFused));
      return static_cast<int>((e >> 8) & 0xFFu);
    }
    if (c.bits() < 16) c.refill();
    if (c.bits() >= 16) {
      // Every code fits the window: walk MAXCODE on it, starting past the
      // table width when the entry proves no shorter code matches.
      const Walk w = walk(c.window(), t == kNotFused ? lut_bits_ + 1 : 1);
      if (w.len > 0) c.skip(w.len);
      return w.symbol;
    }
    // In front of a marker or the end of data: let the reference walk
    // decide bit by bit, exactly as at width 0.
    c.commit();
    const int symbol = decode(c.reader());
    c.reload();
    return symbol;
  }

  /// Lookup-table width this decoder was built with.
  int lut_bits() const { return lut_bits_; }

 private:
  // Low-byte flag of every non-fused entry; an empty entry is the flag alone.
  static constexpr std::uint32_t kNotFused = 0x80u;

  struct Walk {
    int symbol;  // -1 when no code of <= 16 bits matches
    int len;
  };
  // MAXCODE walk (T.81 F.2.2.3) over a window with >= 16 real bits.
  Walk walk(std::uint64_t window, int first_len) const;

  std::array<std::int32_t, 17> min_code_{};
  std::array<std::int32_t, 17> max_code_{};  // -1 where no codes of that length
  std::array<std::int32_t, 17> val_ptr_{};
  std::vector<std::uint8_t> symbols_;
  std::vector<std::uint32_t> lut_;  // packed entries, see the class comment
  int lut_bits_ = 0;
  int lut_shift_ = 64;  // 64 - lut_bits_
};

}  // namespace dnj::jpeg
