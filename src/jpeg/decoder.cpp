#include "jpeg/decoder.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <string>

#include "image/blocks.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/markers.hpp"
#include "jpeg/pipeline/bands.hpp"
#include "jpeg/zigzag.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {

namespace {

using image::kBlockDim;
using image::PlaneF;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("jpeg::decode: " + what);
}

struct FrameComponent {
  int id = 0;
  int h = 1, v = 1;
  int tq = 0;
  int dc_table = 0;
  int ac_table = 0;
  int blocks_x = 0, blocks_y = 0;  // padded grid within the MCU lattice
  std::int16_t* coeffs = nullptr;  // natural-order blocks in the context arena
};

class Parser {
 public:
  Parser(const std::uint8_t* data, std::size_t size, pipeline::CodecContext& ctx)
      : ctx_(ctx), data_(data), size_(size) {}

  JpegInfo info;
  std::vector<FrameComponent> comps;
  // Decoder tables live in the context cache; a warm context decoding a
  // same-table stream skips the per-image table derivation and LUT fill.
  const HuffmanDecoder* dc_tables[4] = {};
  const HuffmanDecoder* ac_tables[4] = {};
  int mcus_x = 0, mcus_y = 0;
  std::size_t scan_start = 0;  // offset of entropy-coded data

  /// Parses markers through SOS. Returns false if the stream had no SOS.
  bool parse_headers() {
    if (read_u8() != 0xFF || read_u8() != kSOI) fail("missing SOI");
    for (;;) {
      const std::uint8_t marker = next_marker();
      switch (marker) {
        case kEOI:
          return false;
        case kDQT:
          read_dqt();
          break;
        case kDHT:
          read_dht();
          break;
        case kSOF0:
        case kSOF1:
          read_sof();
          break;
        case kDRI:
          read_dri();
          break;
        case kCOM:
          read_com();
          break;
        case kSOS:
          read_sos();
          scan_start = pos_;
          return true;
        default:
          if (is_app(marker)) {
            skip_segment();
          } else if (marker >= 0xC2 && marker <= 0xCF && marker != kDHT) {
            fail("unsupported SOF type (only baseline sequential is implemented)");
          } else {
            skip_segment();
          }
      }
    }
  }

  void decode_scan(int num_threads) {
    // Size the per-component coefficient arenas now (parse_info never gets
    // here, so header-only parses leave the context untouched). No
    // zero-fill needed: the MCU walk visits every grid block exactly once
    // and decode_block clears each block before writing it.
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      pipeline::QuantPlane& plane = ctx_.decode_coeffs[ci];
      plane.reshape(comps[ci].blocks_x, comps[ci].blocks_y);
      comps[ci].coeffs = plane.data();
      if (!dc_tables[comps[ci].dc_table] || !ac_tables[comps[ci].ac_table])
        fail("scan references undefined Huffman table");
    }
    const int total_mcus = mcus_x * mcus_y;
    if (info.restart_interval > 0 && total_mcus > info.restart_interval) {
      decode_scan_segments(num_threads);
      return;
    }
    // No restart marker can legally appear: one straight-line pass.
    BitReader br(data_ + scan_start, size_ - scan_start);
    decode_mcu_range(br, 0, total_mcus);
  }

  /// Decodes MCUs [m0, m1) from `br`, DC predictors starting at zero —
  /// exactly the state at the start of a scan or after a restart marker.
  void decode_mcu_range(BitReader& br, int m0, int m1) {
    std::array<int, pipeline::kMaxComponents> dc_pred{};
    for (int mcu_index = m0; mcu_index < m1; ++mcu_index) {
      const int my = mcu_index / mcus_x;
      const int mx = mcu_index % mcus_x;
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        const FrameComponent& c = comps[ci];
        for (int by = 0; by < c.v; ++by) {
          for (int bx = 0; bx < c.h; ++bx) {
            const int gx = mx * c.h + bx;
            const int gy = my * c.v + by;
            std::int16_t* blk =
                c.coeffs + (static_cast<std::size_t>(gy) * c.blocks_x + gx) * 64;
            if (!decode_block(br, blk, dc_pred[ci], *dc_tables[c.dc_table],
                              *ac_tables[c.ac_table]))
              fail("corrupt entropy-coded data");
          }
        }
      }
    }
  }

  /// Restart-interval path: pre-scan the byte stream for the RST markers
  /// (cheap — stuffing rules make them unambiguous without decoding), then
  /// decode the segments independently on parallel_for. Every segment
  /// resets its DC predictors exactly as the serial walk did after
  /// take_marker, and segments write disjoint block ranges of the shared
  /// coefficient planes, so the output is bit-identical at every thread
  /// count. Thrown errors (corrupt segments) propagate via parallel_for's
  /// first-exception rule.
  void decode_scan_segments(int num_threads) {
    const std::uint8_t* scan = data_ + scan_start;
    const std::size_t scan_size = size_ - scan_start;
    const int ri = info.restart_interval;
    const int total_mcus = mcus_x * mcus_y;
    const int num_segments = (total_mcus + ri - 1) / ri;

    struct Segment {
      std::size_t begin, end;  // byte range within the scan, markers excluded
    };
    std::vector<Segment> segments;
    segments.reserve(static_cast<std::size_t>(num_segments));
    std::size_t seg_begin = 0;
    std::size_t p = 0;
    while (static_cast<int>(segments.size()) + 1 < num_segments) {
      if (p + 1 >= scan_size) fail("missing restart marker");
      if (scan[p] != 0xFF) {
        ++p;
        continue;
      }
      const std::uint8_t next = scan[p + 1];
      if (next == 0x00) {  // stuffed data byte
        p += 2;
        continue;
      }
      if (next == 0xFF) {  // fill byte
        ++p;
        continue;
      }
      if (!is_rst(next)) fail("missing restart marker");
      if (next != kRST0 + static_cast<int>(segments.size() % 8))
        fail("restart marker out of sequence");
      segments.push_back({seg_begin, p});
      p += 2;
      seg_begin = p;
    }
    segments.push_back({seg_begin, scan_size});

    runtime::parallel_for(
        0, segments.size(), 1,
        [&](std::size_t si) {
          const Segment& seg = segments[si];
          BitReader br(scan + seg.begin, seg.end - seg.begin);
          const int m0 = static_cast<int>(si) * ri;
          decode_mcu_range(br, m0, std::min(total_mcus, m0 + ri));
          if (si + 1 < segments.size()) {
            // The serial reader demanded a restart marker right after the
            // segment's last MCU; here the marker position is fixed by the
            // pre-scan, so undelivered payload before it (beyond the <= 7
            // pad bits of the final byte) means the segment over-ran its
            // restart interval.
            const std::size_t unread_bytes = (seg.end - seg.begin) - br.position();
            if (br.buffered_bits() + 8 * static_cast<int>(unread_bytes) > 7)
              fail("missing restart marker");
          }
        },
        num_threads);
  }

  image::Image reconstruct(int num_threads) {
    // Checked up front, on the calling thread, before any band runs.
    const QuantTable* tables[pipeline::kMaxComponents] = {};
    std::size_t blocks_per_mcu_row = 0;
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      const FrameComponent& c = comps[ci];
      if (!info.quant_tables[c.tq]) fail("component references undefined DQT");
      tables[ci] = &*info.quant_tables[c.tq];
      ctx_.decode_fp[ci].reshape(c.blocks_x, c.blocks_y);
      ctx_.decode_planes[ci].reset(c.blocks_x * kBlockDim, c.blocks_y * kBlockDim);
      blocks_per_mcu_row += static_cast<std::size_t>(c.blocks_x) * c.v;
    }
    // Colour: luma must carry the maximum sampling factors; each chroma
    // plane is either full resolution (read in place) or exactly half in
    // both directions (4:2:0, upsampled row by row).
    bool half[2] = {false, false};
    if (comps.size() == 3) {
      if (comps[0].h != info.max_h || comps[0].v != info.max_v)
        fail("unsupported sampling factor combination");
      for (int c = 0; c < 2; ++c) {
        const FrameComponent& fc = comps[static_cast<std::size_t>(c) + 1];
        if (fc.h == info.max_h && fc.v == info.max_v) continue;
        if (2 * fc.h != info.max_h || 2 * fc.v != info.max_v)
          fail("unsupported sampling factor combination");
        half[c] = true;
      }
    }

    // The pixel stages run band by band (see pipeline/bands.hpp); every
    // band writes only its own rows of the context arenas, so the pixels
    // never depend on the thread count. First, per component: batched
    // dequantize into the float coefficient arena, in-place batched IDCT,
    // then untile (+128 level unshift) into the component's plane.
    const pipeline::BandPlan plan(blocks_per_mcu_row, mcus_y);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        const FrameComponent& c = comps[ci];
        pipeline::CoeffPlane& fp = ctx_.decode_fp[ci];
        const int by0 = band.first_row * c.v;
        const int by1 = band.end_row * c.v;
        const std::size_t first = static_cast<std::size_t>(by0) * c.blocks_x;
        const std::size_t count = static_cast<std::size_t>(by1 - by0) * c.blocks_x;
        dequantize_batch(c.coeffs + first * 64, count, *tables[ci], fp.block(first));
        idct_batch(fp.block(first), count);
        image::untile_block_rows_from(fp.data(), c.blocks_x, by0, by1,
                                      ctx_.decode_planes[ci], 128.0f);
      }
    });

    // Then one pass over the output rows of each band. Full-resolution
    // chroma is read in place; 4:2:0 chroma stays at its native size and
    // is upsampled row by row (crop-aware: only the top-left
    // ceil(W/2) x ceil(H/2) samples are read) into the band's own row
    // buffers, straight ahead of the colour convert. Same samples as
    // crop -> image::upsample_2x2 -> to_rgb.
    const int width = info.width;
    const int height = info.height;
    const int mcu_h = info.max_v * kBlockDim;
    const std::size_t row_floats = static_cast<std::size_t>(width);
    auto plane_row = [&](std::size_t ci, int y) {
      const PlaneF& p = ctx_.decode_planes[ci];
      return p.data().data() + static_cast<std::size_t>(y) * p.width();
    };
    const simd::KernelTable& k = simd::kernels();
    image::Image img(width, height, static_cast<int>(comps.size()));
    std::uint8_t* out = img.data().data();
    if (comps.size() == 1) {
      plan.run(num_threads, [&](const pipeline::Band& band) {
        for (int y = band.first_row * mcu_h; y < std::min(height, band.end_row * mcu_h); ++y)
          k.f32_to_u8_row(plane_row(0, y), width, out + static_cast<std::size_t>(y) * width);
      });
      return img;
    }
    // Per band, per chroma plane: one output row and the streamer's two
    // cached source rows.
    ctx_.decode_rows.resize(static_cast<std::size_t>(plan.bands()) * 6 * row_floats);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      float* rows = ctx_.decode_rows.data() + static_cast<std::size_t>(band.index) * 6 * row_floats;
      std::optional<image::Upsample2x2Rows> upsample[2];
      for (int c = 0; c < 2; ++c) {
        if (!half[c]) continue;
        const PlaneF& p = ctx_.decode_planes[static_cast<std::size_t>(c) + 1];
        upsample[c].emplace(p.data().data(), static_cast<std::size_t>(p.width()),
                            (width + 1) / 2, (height + 1) / 2, width,
                            rows + (3 * c + 1) * row_floats);
      }
      for (int y = band.first_row * mcu_h; y < std::min(height, band.end_row * mcu_h); ++y) {
        const float* chroma[2];
        for (int c = 0; c < 2; ++c) {
          if (!upsample[c]) {
            chroma[c] = plane_row(static_cast<std::size_t>(c) + 1, y);
            continue;
          }
          float* blended = rows + 3 * c * row_floats;
          upsample[c]->row(y, blended);
          chroma[c] = blended;
        }
        k.ycbcr_to_rgb_row(plane_row(0, y), chroma[0], chroma[1], width,
                           out + static_cast<std::size_t>(y) * width * 3);
      }
    });
    return img;
  }

 private:
  std::uint8_t read_u8() {
    if (pos_ >= size_) fail("unexpected end of stream");
    return data_[pos_++];
  }

  std::uint16_t read_u16() {
    const std::uint16_t hi = read_u8();
    return static_cast<std::uint16_t>((hi << 8) | read_u8());
  }

  std::uint8_t next_marker() {
    // Skip fill bytes and any stray non-FF bytes between segments.
    while (pos_ < size_) {
      std::uint8_t b = read_u8();
      if (b != 0xFF) continue;
      while (pos_ < size_ && data_[pos_] == 0xFF) ++pos_;
      if (pos_ >= size_) break;
      b = read_u8();
      if (b != 0x00) return b;
    }
    fail("ran out of markers");
  }

  void skip_segment() {
    const std::uint16_t len = read_u16();
    if (len < 2) fail("bad segment length");
    if (pos_ + len - 2 > size_) fail("segment exceeds stream");
    pos_ += len - 2u;
  }

  void read_com() {
    const std::uint16_t len = read_u16();
    if (len < 2 || pos_ + len - 2 > size_) fail("bad COM segment");
    info.comment.assign(reinterpret_cast<const char*>(data_ + pos_), len - 2u);
    pos_ += len - 2u;
  }

  void read_dqt() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DQT segment");
    while (pos_ < end) {
      const std::uint8_t pq_tq = read_u8();
      const int pq = pq_tq >> 4;
      const int tq = pq_tq & 0x0F;
      if (pq > 1 || tq > 3) fail("bad DQT precision/index");
      std::array<std::uint16_t, 64> natural{};
      for (int k = 0; k < 64; ++k) {
        const std::uint16_t q = pq ? read_u16() : read_u8();
        natural[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])] = q;
      }
      info.quant_tables[tq] = QuantTable(natural);
    }
  }

  void read_dht() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DHT segment");
    while (pos_ < end) {
      const std::uint8_t tc_th = read_u8();
      const int tc = tc_th >> 4;
      const int th = tc_th & 0x0F;
      if (tc > 1 || th > 3) fail("bad DHT class/index");
      HuffmanSpec spec;
      int total = 0;
      for (int l = 1; l <= 16; ++l) {
        spec.counts[static_cast<std::size_t>(l)] = read_u8();
        total += spec.counts[static_cast<std::size_t>(l)];
      }
      if (total > 256) fail("bad DHT symbol count");
      spec.symbols.reserve(static_cast<std::size_t>(total));
      for (int i = 0; i < total; ++i) spec.symbols.push_back(read_u8());
      try {
        const HuffmanDecoder& dec = ctx_.decoder_for(spec);
        (tc == 0 ? dc_tables : ac_tables)[th] = &dec;
      } catch (const std::invalid_argument& e) {
        fail(std::string("invalid Huffman table: ") + e.what());
      }
    }
  }

  void read_sof() {
    const std::uint16_t len = read_u16();
    if (len < 8) fail("bad SOF segment");
    const int precision = read_u8();
    if (precision != 8) fail("only 8-bit precision supported");
    info.height = read_u16();
    info.width = read_u16();
    if (info.width == 0 || info.height == 0) fail("zero frame dimension");
    info.components = read_u8();
    if (info.components != 1 && info.components != 3)
      fail("only 1- or 3-component frames supported");
    comps.clear();
    for (int i = 0; i < info.components; ++i) {
      FrameComponent c;
      c.id = read_u8();
      const std::uint8_t hv = read_u8();
      c.h = hv >> 4;
      c.v = hv & 0x0F;
      c.tq = read_u8();
      if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2 || c.tq > 3)
        fail("unsupported component parameters");
      comps.push_back(c);
    }
    info.max_h = 1;
    info.max_v = 1;
    for (const FrameComponent& c : comps) {
      info.max_h = std::max(info.max_h, c.h);
      info.max_v = std::max(info.max_v, c.v);
    }
    mcus_x = (info.width + info.max_h * kBlockDim - 1) / (info.max_h * kBlockDim);
    mcus_y = (info.height + info.max_v * kBlockDim - 1) / (info.max_v * kBlockDim);
    for (FrameComponent& c : comps) {
      c.blocks_x = mcus_x * c.h;
      c.blocks_y = mcus_y * c.v;
    }
  }

  void read_dri() {
    const std::uint16_t len = read_u16();
    if (len != 4) fail("bad DRI segment");
    info.restart_interval = read_u16();
  }

  void read_sos() {
    if (comps.empty()) fail("SOS before SOF");
    const std::uint16_t len = read_u16();
    const int ns = read_u8();
    if (ns != static_cast<int>(comps.size()))
      fail("scan component count differs from frame (progressive not supported)");
    if (len != 6 + 2 * ns) fail("bad SOS length");
    for (int i = 0; i < ns; ++i) {
      const int cs = read_u8();
      const std::uint8_t td_ta = read_u8();
      auto it = std::find_if(comps.begin(), comps.end(),
                             [cs](const FrameComponent& c) { return c.id == cs; });
      if (it == comps.end()) fail("scan references unknown component");
      it->dc_table = td_ta >> 4;
      it->ac_table = td_ta & 0x0F;
      if (it->dc_table > 3 || it->ac_table > 3) fail("bad scan table index");
    }
    const int ss = read_u8();
    const int se = read_u8();
    const int ah_al = read_u8();
    if (ss != 0 || se != 63 || ah_al != 0)
      fail("only sequential baseline scans supported");
  }

  pipeline::CodecContext& ctx_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

image::Image decode(ByteSpan bytes, pipeline::CodecContext& ctx, int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  {
    obs::Span span(obs::Stage::kDecodeEntropy, bytes.size);
    if (!parser.parse_headers()) fail("stream contains no scan");
    parser.decode_scan(num_threads);
  }
  obs::Span span(obs::Stage::kDecodePixels);
  return parser.reconstruct(num_threads);
}

image::Image decode(ByteSpan bytes) {
  return decode(bytes, pipeline::thread_codec_context());
}

JpegInfo decode_coefficients(ByteSpan bytes, pipeline::CodecContext& ctx,
                             int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  if (!parser.parse_headers()) fail("stream contains no scan");
  parser.decode_scan(num_threads);
  return parser.info;
}

JpegInfo parse_info(ByteSpan bytes) {
  // Header-only parse: never touches the context arenas.
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  parser.parse_headers();
  return parser.info;
}

std::size_t scan_byte_count(ByteSpan bytes) {
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  if (!parser.parse_headers()) fail("stream contains no scan");
  if (bytes.size < parser.scan_start + 2) fail("truncated scan");
  return bytes.size - parser.scan_start - 2;  // exclude the trailing EOI
}

}  // namespace dnj::jpeg
