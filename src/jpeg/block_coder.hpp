// Per-block entropy coding (T.81 F.1.2/F.2.2): DC DPCM with magnitude
// categories, AC run-length coding with ZRL and EOB, in zig-zag order.
// A statistics-gathering pass mirrors the emit pass so the encoder can build
// optimal Huffman tables in two passes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "jpeg/bitio.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/quant.hpp"
#include "jpeg/zigzag.hpp"

namespace dnj::jpeg {

/// Magnitude category of a coefficient value: the number of bits needed to
/// represent |v| (0 for v == 0). DC categories go to 11, AC to 10 for 8-bit
/// baseline, but values are computed generically. Inline (one call per
/// nonzero coefficient in the entropy coder).
inline int bit_category(int v) {
  const unsigned a = static_cast<unsigned>(v < 0 ? -v : v);
  if (a == 0) return 0;
#if defined(__GNUC__) || defined(__clang__)
  return 32 - __builtin_clz(a);
#else
  int bits = 0;
  for (unsigned t = a; t != 0; t >>= 1) ++bits;
  return bits;
#endif
}

/// Symbol frequency accumulators for one (DC, AC) table pair.
struct SymbolCounts {
  std::array<std::uint32_t, 256> dc{};
  std::array<std::uint32_t, 256> ac{};
};

/// Encodes one quantized block. `dc_pred` is the running DC predictor for
/// the component and is updated in place.
void encode_block(BitWriter& bw, const QuantizedBlock& block, int& dc_pred,
                  const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table);

/// Tallies the Huffman symbols the block would emit (pass 1 of optimized
/// encoding). Updates `dc_pred` identically to encode_block.
void count_block_symbols(const QuantizedBlock& block, int& dc_pred, SymbolCounts& counts);

/// Encodes one block whose 64 coefficients are already in zig-zag scan
/// order (the layout `quantize_zigzag_batch` emits) — the coder reads the
/// buffer linearly with no permutation lookups. Emits exactly the bits
/// `encode_block` emits for the equivalent natural-order block.
void encode_block_zz(BitWriter& bw, const std::int16_t* zz, int& dc_pred,
                     const HuffmanEncoder& dc_table, const HuffmanEncoder& ac_table);

/// Encodes `count` consecutive zig-zag-order blocks (64 int16 apiece,
/// contiguous — a QuantPlane's layout) with one register-resident bit
/// cursor and one SIMD dispatch lookup for the whole run, instead of per
/// block. Bitstream-identical to `count` encode_block_zz calls. This is
/// the single-component scan fast path; interleaved scans still go block
/// by block.
void encode_blocks_zz(BitWriter& bw, const std::int16_t* zz, std::size_t count,
                      int& dc_pred, const HuffmanEncoder& dc_table,
                      const HuffmanEncoder& ac_table);

/// Statistics pass over a zig-zag-order block, mirroring encode_block_zz.
void count_block_symbols_zz(const std::int16_t* zz, int& dc_pred, SymbolCounts& counts);

/// Decodes one block into natural-order quantized coefficients. Returns
/// false on a corrupt or truncated stream. When either table was built at
/// lookup width 0 this is the bit-by-bit reference decode; otherwise it
/// runs the cursor decode below through a cursor of its own.
bool decode_block(BitReader& br, QuantizedBlock& block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// Same, writing the 64 natural-order coefficients to `block` directly
/// (e.g. into a pipeline::QuantPlane arena slot).
bool decode_block(BitReader& br, std::int16_t* block, int& dc_pred,
                  const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table);

/// Decodes one block through a caller-owned ReadCursor — the scan
/// decoder's inner loop, inline so a cursor that lives across a whole run
/// of blocks stays in registers. Both tables need lookup width >= 1. Most
/// coefficients cost one fused lookup: one table load yields the run, the
/// sign-extended value and the bits to skip. EOB, ZRL and magnitudes too
/// long for the window go through decode_symbol(). Same coefficients, and
/// the same failures, as the reference decode at width 0.
inline bool decode_block(BitReader::ReadCursor& cur, std::int16_t* block, int& dc_pred,
                         const HuffmanDecoder& dc_table, const HuffmanDecoder& ac_table) {
  std::fill(block, block + 64, static_cast<std::int16_t>(0));
  if (cur.bits() < 32) cur.refill();
  std::uint32_t e = dc_table.lookup(cur.window());
  int diff = 0;
  if (HuffmanDecoder::fused_length(e) <= cur.bits()) {
    if (HuffmanDecoder::fused_run(e) != 0) return false;  // DC symbols stop at 15
    diff = HuffmanDecoder::fused_value(e);
    cur.skip(HuffmanDecoder::fused_length(e));
  } else {
    const int cat = dc_table.decode_symbol(cur, e);
    if (cat < 0 || cat > 15) return false;
    if (cat > 0) {
      if (cur.bits() < cat) cur.refill();
      if (cur.bits() < cat) return false;
      diff = extend_magnitude(static_cast<int>(cur.take(cat)), cat);
    }
  }
  dc_pred += diff;
  block[0] = static_cast<std::int16_t>(dc_pred);

  int k = 1;
  while (k < 64) {
    if (cur.bits() < 32) cur.refill();
    e = ac_table.lookup(cur.window());
    if (HuffmanDecoder::fused_length(e) <= cur.bits()) {
      k += HuffmanDecoder::fused_run(e);
      if (k >= 64) return false;
      block[kZigzag[static_cast<std::size_t>(k)]] =
          static_cast<std::int16_t>(HuffmanDecoder::fused_value(e));
      ++k;
      cur.skip(HuffmanDecoder::fused_length(e));
      continue;
    }
    const int sym = ac_table.decode_symbol(cur, e);
    if (sym < 0) return false;
    if (sym == 0x00) break;  // EOB
    const int cat = sym & 0x0F;
    if (cat == 0) {
      if (sym != 0xF0) return false;  // only ZRL has size 0
      k += 16;
      continue;
    }
    k += sym >> 4;
    if (k >= 64) return false;
    if (cur.bits() < cat) cur.refill();
    if (cur.bits() < cat) return false;
    block[kZigzag[static_cast<std::size_t>(k)]] =
        static_cast<std::int16_t>(extend_magnitude(static_cast<int>(cur.take(cat)), cat));
    ++k;
  }
  return true;
}

}  // namespace dnj::jpeg
