// Per-worker codec state: reusable scratch arenas plus precomputed tables.
//
// A CodecContext owns everything an encode or decode needs beyond the image
// itself:
//
//  * scratch arenas — YCbCr planes, downsampled chroma, one CoeffPlane and
//    one QuantPlane per component, decode-side coefficient stores. All of
//    them reshape in place. A warm context *encodes* a stream of
//    same-sized images with zero per-block and zero per-image allocations
//    (the returned byte vector aside). A warm context decodes the same way:
//    chroma planes stay at their native resolution and 4:2:0 upsampling
//    streams through a few row buffers, so the returned Image is the only
//    per-image allocation.
//  * the static (Annex K.3) Huffman specs and their derived encoder tables,
//    built once per context instead of once per image — dataset-level
//    callers with optimize_huffman off no longer re-derive them per image.
//  * a two-slot reciprocal-multiplier cache (luma/chroma) keyed by table
//    contents, so the fused quantize pass multiplies instead of divides
//    without rebuilding reciprocals for every image of a transcode run.
//
// Contexts are cheap to create but meant to be reused. They are NOT
// thread-safe; give each worker its own — `thread_codec_context()` hands
// out one per thread, which is how core/transcode and core/sa_optimizer
// get "one arena per worker" through the runtime parallel helpers. One
// encode or decode call may itself fan its own arenas out over pool
// threads: it sizes every arena on the calling thread, then each band
// (pipeline/bands.hpp) writes a disjoint range of them. That is internal
// to the call; two concurrent calls still need two contexts. Results
// never depend on context state, so the bit-identical-at-any-thread-count
// guarantee is preserved.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "image/color.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/pipeline/coeff_plane.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg::pipeline {

inline constexpr int kMaxComponents = 3;

class CodecContext {
 public:
  /// The four Annex K.3 default Huffman tables with their derived encoder
  /// lookups, constructed in one shot.
  struct StaticHuffman {
    HuffmanSpec dc_luma_spec, ac_luma_spec, dc_chroma_spec, ac_chroma_spec;
    HuffmanEncoder dc_luma, ac_luma, dc_chroma, ac_chroma;
    StaticHuffman();
  };

  /// Lazily built once per context, then reused for every image.
  const StaticHuffman& static_huffman();

  /// Reciprocal multipliers for `table`, cached per slot (0 = luma,
  /// 1 = chroma). Rebuilt only when the table contents change.
  const ReciprocalTable& reciprocal_for(const QuantTable& table, int slot);

  /// The Annex K tables IJG-scaled to `quality`, cached so a dataset
  /// re-encode at one quality derives them once instead of per image.
  struct QualityTables {
    const QuantTable& luma;
    const QuantTable& chroma;
  };
  QualityTables quality_tables(int quality);

  /// Decoder-side Huffman tables (MINCODE/MAXCODE plus the peek LUT), cached
  /// by table contents and current LUT width. A warm context decoding a
  /// same-table stream (the serving steady state) skips both the canonical
  /// code derivation and the 2^W-entry LUT fill on every image. Sixteen
  /// slots with round-robin replacement: one scan can hold up to eight live
  /// tables (4 DC + 4 AC) and redefinitions mid-stream never evict an entry
  /// the current parse still points at. Returned references stay valid
  /// until at least fifteen further distinct tables are requested.
  const HuffmanDecoder& decoder_for(const HuffmanSpec& spec);

  /// How often the lazily-cached state above was actually (re)built. A warm
  /// context encoding a same-config stream sits at one build each; every
  /// additional rebuild is a cache miss caused by interleaved configs. The
  /// serving layer reports these per worker — they are the direct measure
  /// of how well micro-batching keeps contexts warm.
  struct ReuseCounters {
    std::uint64_t huffman_builds = 0;
    std::uint64_t reciprocal_builds = 0;
    std::uint64_t quality_table_builds = 0;
    std::uint64_t huffman_decoder_builds = 0;
  };
  const ReuseCounters& reuse_counters() const { return counters_; }

  // --- encode-side arenas -------------------------------------------------
  image::YCbCrPlanes ycc;                        ///< color-transform output
  std::array<image::PlaneF, 2> chroma_small;     ///< 4:2:0 downsampled Cb/Cr
  std::array<CoeffPlane, kMaxComponents> coeff;  ///< float DCT planes
  std::array<QuantPlane, kMaxComponents> quant;  ///< zig-zag int16 planes

  // --- decode-side arenas -------------------------------------------------
  std::array<QuantPlane, kMaxComponents> decode_coeffs;  ///< natural-order int16
  std::array<CoeffPlane, kMaxComponents> decode_fp;      ///< dequantized floats
  std::array<image::PlaneF, kMaxComponents> decode_planes;  ///< native resolution
  std::vector<float> decode_rows;  ///< upsample row buffers, 6 rows per band

 private:
  std::optional<StaticHuffman> static_huffman_;
  struct RecipSlot {
    QuantTable table;
    ReciprocalTable recip;
    bool valid = false;
  };
  std::array<RecipSlot, 2> recips_;
  struct DecoderSlot {
    std::uint64_t key = 0;  // FNV-1a over counts + symbols + LUT width
    int lut_bits = -1;
    HuffmanSpec spec;
    std::optional<HuffmanDecoder> decoder;
  };
  std::array<DecoderSlot, 16> decoders_;
  std::size_t decoder_next_ = 0;  // round-robin replacement cursor
  int cached_quality_ = -1;
  QuantTable quality_luma_, quality_chroma_;
  ReuseCounters counters_;
};

/// One context per thread, created on first use — the per-worker arena the
/// parallel dataset loops (and the default encode/decode entry points)
/// reuse across images.
CodecContext& thread_codec_context();

}  // namespace dnj::jpeg::pipeline
