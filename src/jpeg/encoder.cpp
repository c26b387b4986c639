#include "jpeg/encoder.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/markers.hpp"
#include "jpeg/pipeline/bands.hpp"
#include "jpeg/zigzag.hpp"
#include "obs/trace.hpp"

namespace dnj::jpeg {

namespace {

using image::BlockF;
using image::kBlockDim;
using image::kBlockSize;
using image::PlaneF;
using pipeline::CodecContext;
using pipeline::kMaxComponents;

// One frame component prepared for entropy coding. `zz` points into the
// context's QuantPlane arena: block (gx, gy) starts at
// zz[(gy * blocks_x + gx) * 64], coefficients already in zig-zag order.
struct Component {
  int id = 1;           // component identifier written to SOF0/SOS
  int h = 1, v = 1;     // sampling factors
  int tq = 0;           // quantization table index (0 = luma, 1 = chroma)
  int blocks_x = 0;     // padded block-grid width
  int blocks_y = 0;
  const std::int16_t* zz = nullptr;
};

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void write_segment_header(std::vector<std::uint8_t>& out, std::uint8_t marker,
                          std::uint16_t payload_len) {
  out.push_back(0xFF);
  out.push_back(marker);
  put_u16(out, static_cast<std::uint16_t>(payload_len + 2));
}

void write_app0(std::vector<std::uint8_t>& out) {
  write_segment_header(out, kAPP0, 14);
  const char jfif[5] = {'J', 'F', 'I', 'F', '\0'};
  out.insert(out.end(), jfif, jfif + 5);
  out.push_back(1);  // version 1.01
  out.push_back(1);
  out.push_back(0);  // density units: none
  put_u16(out, 1);   // x density
  put_u16(out, 1);   // y density
  out.push_back(0);  // no thumbnail
  out.push_back(0);
}

void write_comment(std::vector<std::uint8_t>& out, const std::string& text) {
  if (text.empty()) return;
  if (text.size() > 65533) throw std::invalid_argument("encode: comment too long");
  write_segment_header(out, kCOM, static_cast<std::uint16_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

void write_dqt(std::vector<std::uint8_t>& out, const QuantTable& table, int index) {
  const bool wide = table.needs_16bit();
  write_segment_header(out, kDQT, static_cast<std::uint16_t>(1 + (wide ? 128 : 64)));
  out.push_back(static_cast<std::uint8_t>(((wide ? 1 : 0) << 4) | index));
  for (int k = 0; k < 64; ++k) {
    const std::uint16_t q = table.step(kZigzag[static_cast<std::size_t>(k)]);
    if (wide) put_u16(out, q);
    else out.push_back(static_cast<std::uint8_t>(q));
  }
}

template <typename Comp>
void write_sof0(std::vector<std::uint8_t>& out, int width, int height, const Comp* comps,
                std::size_t n_comps) {
  write_segment_header(out, kSOF0, static_cast<std::uint16_t>(6 + 3 * n_comps));
  out.push_back(8);  // sample precision
  put_u16(out, static_cast<std::uint16_t>(height));
  put_u16(out, static_cast<std::uint16_t>(width));
  out.push_back(static_cast<std::uint8_t>(n_comps));
  for (std::size_t i = 0; i < n_comps; ++i) {
    const Comp& c = comps[i];
    out.push_back(static_cast<std::uint8_t>(c.id));
    out.push_back(static_cast<std::uint8_t>((c.h << 4) | c.v));
    out.push_back(static_cast<std::uint8_t>(c.tq));
  }
}

void write_dht(std::vector<std::uint8_t>& out, const HuffmanSpec& spec, int klass, int index) {
  write_segment_header(out, kDHT,
                       static_cast<std::uint16_t>(1 + 16 + spec.symbols.size()));
  out.push_back(static_cast<std::uint8_t>((klass << 4) | index));
  for (int l = 1; l <= 16; ++l) out.push_back(spec.counts[static_cast<std::size_t>(l)]);
  out.insert(out.end(), spec.symbols.begin(), spec.symbols.end());
}

void write_dri(std::vector<std::uint8_t>& out, int interval) {
  write_segment_header(out, kDRI, 2);
  put_u16(out, static_cast<std::uint16_t>(interval));
}

template <typename Comp>
void write_sos_header(std::vector<std::uint8_t>& out, const Comp* comps,
                      std::size_t n_comps) {
  write_segment_header(out, kSOS, static_cast<std::uint16_t>(1 + 2 * n_comps + 3));
  out.push_back(static_cast<std::uint8_t>(n_comps));
  for (std::size_t i = 0; i < n_comps; ++i) {
    const Comp& c = comps[i];
    out.push_back(static_cast<std::uint8_t>(c.id));
    const int table = c.tq;  // DC and AC table index follow the quant index
    out.push_back(static_cast<std::uint8_t>((table << 4) | table));
  }
  out.push_back(0);   // spectral start
  out.push_back(63);  // spectral end
  out.push_back(0);   // successive approximation
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Walks MCUs in scan order invoking fn(component_index, grid_x, grid_y) for
// every data unit, handling the restart bookkeeping via the callbacks.
// Templated over the component record so the pipeline and reference paths
// share one traversal (same bit-exact scan order).
template <typename Comp, typename BlockFn, typename RestartFn>
void for_each_data_unit(const Comp* comps, std::size_t n_comps, int mcus_x, int mcus_y,
                        int restart_interval, BlockFn&& fn, RestartFn&& restart) {
  int mcu_index = 0;
  for (int my = 0; my < mcus_y; ++my) {
    for (int mx = 0; mx < mcus_x; ++mx) {
      if (restart_interval > 0 && mcu_index > 0 && mcu_index % restart_interval == 0)
        restart((mcu_index / restart_interval - 1) % 8);
      for (std::size_t ci = 0; ci < n_comps; ++ci) {
        const Comp& c = comps[ci];
        for (int by = 0; by < c.v; ++by) {
          for (int bx = 0; bx < c.h; ++bx) {
            fn(ci, mx * c.h + bx, my * c.v + by);
          }
        }
      }
      ++mcu_index;
    }
  }
}

void validate_config(PixelView img, const EncoderConfig& config) {
  if (img.empty()) throw std::invalid_argument("encode: empty image");
  if (img.width > 65535 || img.height > 65535)
    throw std::invalid_argument("encode: image too large for baseline JPEG");
  // Image's constructor enforces this for owned images; raw views arriving
  // through the public API are validated here.
  if (img.channels != 1 && img.channels != 3)
    throw std::invalid_argument("encode: channels must be 1 or 3");
  if (config.restart_interval < 0 || config.restart_interval > 65535)
    throw std::invalid_argument("encode: bad restart interval");
}

}  // namespace

std::pair<QuantTable, QuantTable> effective_tables(const EncoderConfig& config) {
  if (config.use_custom_tables) return {config.luma_table, config.chroma_table};
  return {QuantTable::annex_k_luma().scaled(config.quality),
          QuantTable::annex_k_chroma().scaled(config.quality)};
}

namespace {

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_table(std::vector<std::uint8_t>& out, const QuantTable& table) {
  for (std::uint16_t q : table.natural()) {
    out.push_back(static_cast<std::uint8_t>(q & 0xFF));
    out.push_back(static_cast<std::uint8_t>(q >> 8));
  }
}

}  // namespace

void append_config_bytes(const EncoderConfig& config, std::vector<std::uint8_t>& out) {
  // Fixed field order; every field is either fixed-width or length-prefixed
  // so no two distinct configs can serialize to the same bytes. When
  // use_custom_tables is false the table contents are not part of the
  // computation (quality selects the Annex K scaling), so they are
  // deliberately excluded — exactly the aliasing the digests want.
  out.reserve(out.size() + 19 + (config.use_custom_tables ? 256 : 0) +
              config.comment.size());
  append_u32(out, static_cast<std::uint32_t>(config.quality));
  append_u8(out, config.use_custom_tables ? 1 : 0);
  if (config.use_custom_tables) {
    append_table(out, config.luma_table);
    append_table(out, config.chroma_table);
  }
  append_u8(out, static_cast<std::uint8_t>(config.subsampling));
  append_u8(out, config.optimize_huffman ? 1 : 0);
  append_u32(out, static_cast<std::uint32_t>(config.restart_interval));
  append_u64(out, config.comment.size());
  out.insert(out.end(), config.comment.begin(), config.comment.end());
}

std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx, int num_threads) {
  validate_config(img, config);

  // Same resolution rule as effective_tables, but quality-scaled tables
  // come from the context cache instead of being re-derived per image.
  const QuantTable* luma_ptr;
  const QuantTable* chroma_ptr;
  if (config.use_custom_tables) {
    luma_ptr = &config.luma_table;
    chroma_ptr = &config.chroma_table;
  } else {
    const CodecContext::QualityTables qt = ctx.quality_tables(config.quality);
    luma_ptr = &qt.luma;
    chroma_ptr = &qt.chroma;
  }
  const QuantTable& luma_q = *luma_ptr;
  const QuantTable& chroma_q = *chroma_ptr;
  const bool color = img.channels == 3;
  const bool sub420 = color && config.subsampling == Subsampling::k420;

  // Frame layout. Grayscale has one component; colour has Y, Cb, Cr with
  // luma at 2x2 sampling under 4:2:0. Every component is tiled,
  // transformed and quantized into its context arenas.
  const std::size_t n_comps = color ? 3 : 1;
  const int mcu_dim = (sub420 ? 2 : 1) * kBlockDim;
  const int mcus_x = ceil_div(img.width, mcu_dim);
  const int mcus_y = ceil_div(img.height, mcu_dim);
  std::array<Component, kMaxComponents> comps{};
  std::size_t total_blocks = 0;
  std::size_t blocks_per_mcu_row = 0;
  for (std::size_t ci = 0; ci < n_comps; ++ci) {
    Component& c = comps[ci];
    c.id = static_cast<int>(ci) + 1;
    c.h = c.v = (sub420 && ci == 0) ? 2 : 1;
    c.tq = ci == 0 ? 0 : 1;
    c.blocks_x = mcus_x * c.h;
    c.blocks_y = mcus_y * c.v;
    ctx.coeff[ci].reshape(c.blocks_x, c.blocks_y);
    ctx.quant[ci].reshape(c.blocks_x, c.blocks_y);
    c.zz = ctx.quant[ci].data();
    total_blocks += ctx.coeff[ci].block_count();
    blocks_per_mcu_row += static_cast<std::size_t>(c.blocks_x) * c.v;
  }
  const ReciprocalTable* recip[2] = {&ctx.reciprocal_for(luma_q, 0),
                                     color ? &ctx.reciprocal_for(chroma_q, 1) : nullptr};

  // The pixel stages run band by band (see pipeline/bands.hpp). MCU rows
  // [r0, r1) cover block rows [r0 * v, r1 * v) of each component; every
  // stage reads and writes only its own band, so the bytes never depend
  // on the thread count.
  const pipeline::BandPlan plan(blocks_per_mcu_row, mcus_y);
  const auto band_blocks = [&](std::size_t ci, const pipeline::Band& band) {
    const Component& c = comps[ci];
    const std::size_t first = static_cast<std::size_t>(band.first_row) * c.v * c.blocks_x;
    const std::size_t end = static_cast<std::size_t>(band.end_row) * c.v * c.blocks_x;
    return std::pair<std::size_t, std::size_t>(first, end - first);
  };

  {
    // Colour convert, 4:2:0 downsample and tile (level shift fused). A
    // band's MCU rows cover exactly the pixel rows, downsampled rows and
    // edge-replicated rows its blocks read, so the three steps share one
    // parallel region. Grayscale tiles straight from the 8-bit pixels —
    // no intermediate float plane at all.
    obs::Span span(obs::Stage::kEncodeTile, total_blocks);
    if (color) {
      ctx.ycc.y.reset(img.width, img.height);
      ctx.ycc.cb.reset(img.width, img.height);
      ctx.ycc.cr.reset(img.width, img.height);
      if (sub420)
        for (PlaneF& p : ctx.chroma_small) p.reset((img.width + 1) / 2, (img.height + 1) / 2);
    }
    const PlaneF* planes[kMaxComponents] = {
        &ctx.ycc.y, sub420 ? &ctx.chroma_small[0] : &ctx.ycc.cb,
        sub420 ? &ctx.chroma_small[1] : &ctx.ycc.cr};
    plan.run(num_threads, [&](const pipeline::Band& band) {
      if (!color) {
        image::tile_image_block_rows_into(img, 0, comps[0].blocks_x, band.first_row,
                                          band.end_row, ctx.coeff[0].data(), -128.0f);
        return;
      }
      image::to_ycbcr_rows(img, ctx.ycc, band.first_row * mcu_dim,
                           std::min(img.height, band.end_row * mcu_dim));
      if (sub420) {
        const int small_h = ctx.chroma_small[0].height();
        const int y0 = band.first_row * kBlockDim;
        const int y1 = std::min(small_h, band.end_row * kBlockDim);
        image::downsample_2x2_rows(ctx.ycc.cb, ctx.chroma_small[0], y0, y1);
        image::downsample_2x2_rows(ctx.ycc.cr, ctx.chroma_small[1], y0, y1);
      }
      for (std::size_t ci = 0; ci < n_comps; ++ci) {
        const Component& c = comps[ci];
        image::tile_block_rows_into(*planes[ci], c.blocks_x, band.first_row * c.v,
                                    band.end_row * c.v, ctx.coeff[ci].data(), -128.0f);
      }
    });
  }
  {
    obs::Span span(obs::Stage::kEncodeDct, total_blocks);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      for (std::size_t ci = 0; ci < n_comps; ++ci) {
        const auto [first, count] = band_blocks(ci, band);
        fdct_batch(ctx.coeff[ci].block(first), count);
      }
    });
  }
  {
    obs::Span span(obs::Stage::kEncodeQuant, total_blocks);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      for (std::size_t ci = 0; ci < n_comps; ++ci) {
        const auto [first, count] = band_blocks(ci, band);
        quantize_zigzag_batch(ctx.coeff[ci].block(first), count, *recip[comps[ci].tq],
                              ctx.quant[ci].block(first));
      }
    });
  }

  const auto zz_block = [&](std::size_t ci, int gx, int gy) {
    const Component& c = comps[ci];
    return c.zz + (static_cast<std::size_t>(gy) * c.blocks_x + gx) * kBlockSize;
  };

  // Huffman table specs: the context's cached static tables, or optimal
  // tables from a statistics pass (the only per-image table derivation left).
  const CodecContext::StaticHuffman& stat = ctx.static_huffman();
  const HuffmanSpec* dc_luma = &stat.dc_luma_spec;
  const HuffmanSpec* ac_luma = &stat.ac_luma_spec;
  const HuffmanSpec* dc_chroma = &stat.dc_chroma_spec;
  const HuffmanSpec* ac_chroma = &stat.ac_chroma_spec;
  const HuffmanEncoder* dc_enc_luma = &stat.dc_luma;
  const HuffmanEncoder* ac_enc_luma = &stat.ac_luma;
  const HuffmanEncoder* dc_enc_chroma = &stat.dc_chroma;
  const HuffmanEncoder* ac_enc_chroma = &stat.ac_chroma;

  HuffmanSpec opt_dc_luma, opt_ac_luma, opt_dc_chroma, opt_ac_chroma;
  std::optional<HuffmanEncoder> opt_enc[4];
  if (config.optimize_huffman) {
    std::array<SymbolCounts, 2> counts{};  // [0]=luma tables, [1]=chroma tables
    std::array<int, kMaxComponents> dc_pred{};
    for_each_data_unit(
        comps.data(), n_comps, mcus_x, mcus_y, config.restart_interval,
        [&](std::size_t ci, int gx, int gy) {
          count_block_symbols_zz(zz_block(ci, gx, gy), dc_pred[ci],
                                 counts[static_cast<std::size_t>(comps[ci].tq)]);
        },
        [&](int) { dc_pred.fill(0); });
    opt_dc_luma = HuffmanSpec::build_optimal(counts[0].dc);
    opt_ac_luma = HuffmanSpec::build_optimal(counts[0].ac);
    dc_luma = &opt_dc_luma;
    ac_luma = &opt_ac_luma;
    opt_enc[0].emplace(opt_dc_luma);
    opt_enc[1].emplace(opt_ac_luma);
    dc_enc_luma = &*opt_enc[0];
    ac_enc_luma = &*opt_enc[1];
    if (color) {
      opt_dc_chroma = HuffmanSpec::build_optimal(counts[1].dc);
      opt_ac_chroma = HuffmanSpec::build_optimal(counts[1].ac);
      dc_chroma = &opt_dc_chroma;
      ac_chroma = &opt_ac_chroma;
      opt_enc[2].emplace(opt_dc_chroma);
      opt_enc[3].emplace(opt_ac_chroma);
      dc_enc_chroma = &*opt_enc[2];
      ac_enc_chroma = &*opt_enc[3];
    }
  }

  // Serialize the stream. Reserving up front keeps the byte vector from
  // reallocating through the entropy pass at typical codec qualities
  // (~3 bits/pixel = 24 bytes/block); denser streams grow once or twice,
  // and the returned capacity stays close to the payload for callers that
  // keep many streams resident.
  std::vector<std::uint8_t> out;
  out.reserve(1024 + config.comment.size() + total_blocks * 24);
  out.push_back(0xFF);
  out.push_back(kSOI);
  write_app0(out);
  write_comment(out, config.comment);
  write_dqt(out, luma_q, 0);
  if (color) write_dqt(out, chroma_q, 1);
  write_sof0(out, img.width, img.height, comps.data(), n_comps);
  write_dht(out, *dc_luma, 0, 0);
  write_dht(out, *ac_luma, 1, 0);
  if (color) {
    write_dht(out, *dc_chroma, 0, 1);
    write_dht(out, *ac_chroma, 1, 1);
  }
  if (config.restart_interval > 0) write_dri(out, config.restart_interval);
  write_sos_header(out, comps.data(), n_comps);

  obs::Span entropy_span(obs::Stage::kEncodeEntropy, total_blocks);
  BitWriter bw(out);
  std::array<int, kMaxComponents> dc_pred{};
  if (n_comps == 1 && config.restart_interval == 0) {
    // Single-component scan without restarts: MCU order is plane raster
    // order, so the whole scan is one contiguous block run — encode it
    // through the batched cursor instead of per-block calls.
    encode_blocks_zz(bw, comps[0].zz,
                     static_cast<std::size_t>(comps[0].blocks_x) * comps[0].blocks_y,
                     dc_pred[0], *dc_enc_luma, *ac_enc_luma);
  } else {
    for_each_data_unit(
        comps.data(), n_comps, mcus_x, mcus_y, config.restart_interval,
        [&](std::size_t ci, int gx, int gy) {
          const bool luma_tables = comps[ci].tq == 0;
          encode_block_zz(bw, zz_block(ci, gx, gy), dc_pred[ci],
                          luma_tables ? *dc_enc_luma : *dc_enc_chroma,
                          luma_tables ? *ac_enc_luma : *ac_enc_chroma);
        },
        [&](int rst_index) {
          bw.put_marker(static_cast<std::uint8_t>(kRST0 + rst_index));
          dc_pred.fill(0);
        });
  }
  bw.put_marker(kEOI);
  return out;
}

std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config,
                                 pipeline::CodecContext& ctx, int num_threads) {
  return encode(img.view(), config, ctx, num_threads);
}

std::vector<std::uint8_t> encode(PixelView img, const EncoderConfig& config) {
  return encode(img, config, pipeline::thread_codec_context());
}

std::vector<std::uint8_t> encode(const image::Image& img, const EncoderConfig& config) {
  return encode(img.view(), config, pipeline::thread_codec_context());
}

// ---------------------------------------------------------------------------
// Reference per-block encoder. The *structure* is the seed implementation
// (materialized padded plane, per-block BlockF copies, per-image table
// derivation); the per-coefficient arithmetic goes through the same
// shared primitives as the pipeline — fdct_aan's multiplicative descale
// and quantize()'s reciprocal rounding rule — so the two paths are
// byte-identical to each other. Streams may differ from the pre-reciprocal
// seed by one quantization step in rare round-half-even boundary cases.
// ---------------------------------------------------------------------------

namespace {

// One frame component prepared for entropy coding, per-block storage.
struct RefComponent {
  int id = 1;
  int h = 1, v = 1;
  int tq = 0;
  int blocks_x = 0;
  int blocks_y = 0;
  std::vector<QuantizedBlock> blocks;  // row-major grid, natural order
};

// Transforms and quantizes a plane into a block grid padded to
// (grid_blocks_x, grid_blocks_y) blocks, one materialized BlockF at a time.
RefComponent make_reference_component(const PlaneF& plane, int id, int h, int v, int tq,
                                      int grid_blocks_x, int grid_blocks_y,
                                      const QuantTable& table) {
  RefComponent comp;
  comp.id = id;
  comp.h = h;
  comp.v = v;
  comp.tq = tq;
  comp.blocks_x = grid_blocks_x;
  comp.blocks_y = grid_blocks_y;
  // Pad the plane up to the full grid by edge replication.
  PlaneF padded(grid_blocks_x * kBlockDim, grid_blocks_y * kBlockDim);
  for (int y = 0; y < padded.height(); ++y) {
    const int sy = std::min(y, plane.height() - 1);
    for (int x = 0; x < padded.width(); ++x) {
      const int sx = std::min(x, plane.width() - 1);
      padded.at(x, y) = plane.at(sx, sy);
    }
  }
  // Reciprocals hoisted out of the block loop so the reference baseline is
  // not slower than the seed's inline divide loop (keeps the bench's
  // reference-vs-pipeline speedup conservative).
  const ReciprocalTable recip(table);
  comp.blocks.resize(static_cast<std::size_t>(grid_blocks_x) * grid_blocks_y);
  for (int by = 0; by < grid_blocks_y; ++by) {
    for (int bx = 0; bx < grid_blocks_x; ++bx) {
      BlockF blk{};
      for (int y = 0; y < kBlockDim; ++y)
        for (int x = 0; x < kBlockDim; ++x)
          blk[static_cast<std::size_t>(y) * kBlockDim + x] =
              padded.at(bx * kBlockDim + x, by * kBlockDim + y) - 128.0f;
      comp.blocks[static_cast<std::size_t>(by) * grid_blocks_x + bx] =
          quantize(fdct(blk), recip);
    }
  }
  return comp;
}

}  // namespace

std::vector<std::uint8_t> encode_reference(const image::Image& img,
                                           const EncoderConfig& config) {
  validate_config(img.view(), config);

  const auto [luma_q, chroma_q] = effective_tables(config);
  const bool color = img.channels() == 3;
  const bool sub420 = color && config.subsampling == Subsampling::k420;

  image::YCbCrPlanes planes = image::to_ycbcr(img);
  std::vector<RefComponent> comps;
  int mcus_x = 0, mcus_y = 0;
  if (!color) {
    mcus_x = ceil_div(img.width(), kBlockDim);
    mcus_y = ceil_div(img.height(), kBlockDim);
    comps.push_back(make_reference_component(planes.y, 1, 1, 1, 0, mcus_x, mcus_y, luma_q));
  } else if (!sub420) {
    mcus_x = ceil_div(img.width(), kBlockDim);
    mcus_y = ceil_div(img.height(), kBlockDim);
    comps.push_back(make_reference_component(planes.y, 1, 1, 1, 0, mcus_x, mcus_y, luma_q));
    comps.push_back(
        make_reference_component(planes.cb, 2, 1, 1, 1, mcus_x, mcus_y, chroma_q));
    comps.push_back(
        make_reference_component(planes.cr, 3, 1, 1, 1, mcus_x, mcus_y, chroma_q));
  } else {
    mcus_x = ceil_div(img.width(), 2 * kBlockDim);
    mcus_y = ceil_div(img.height(), 2 * kBlockDim);
    const PlaneF cb_small = image::downsample_2x2(planes.cb);
    const PlaneF cr_small = image::downsample_2x2(planes.cr);
    comps.push_back(
        make_reference_component(planes.y, 1, 2, 2, 0, 2 * mcus_x, 2 * mcus_y, luma_q));
    comps.push_back(
        make_reference_component(cb_small, 2, 1, 1, 1, mcus_x, mcus_y, chroma_q));
    comps.push_back(
        make_reference_component(cr_small, 3, 1, 1, 1, mcus_x, mcus_y, chroma_q));
  }

  const auto block_of = [&](std::size_t ci, int gx, int gy) -> const QuantizedBlock& {
    const RefComponent& c = comps[ci];
    return c.blocks[static_cast<std::size_t>(gy) * c.blocks_x + gx];
  };

  // Huffman table specs: defaults (derived per image, as the seed did), or
  // optimal from a statistics pass.
  HuffmanSpec dc_luma = HuffmanSpec::default_dc_luma();
  HuffmanSpec ac_luma = HuffmanSpec::default_ac_luma();
  HuffmanSpec dc_chroma = HuffmanSpec::default_dc_chroma();
  HuffmanSpec ac_chroma = HuffmanSpec::default_ac_chroma();
  if (config.optimize_huffman) {
    std::array<SymbolCounts, 2> counts{};
    std::vector<int> dc_pred(comps.size(), 0);
    for_each_data_unit(
        comps.data(), comps.size(), mcus_x, mcus_y, config.restart_interval,
        [&](std::size_t ci, int gx, int gy) {
          count_block_symbols(block_of(ci, gx, gy), dc_pred[ci],
                              counts[static_cast<std::size_t>(comps[ci].tq)]);
        },
        [&](int) { std::fill(dc_pred.begin(), dc_pred.end(), 0); });
    dc_luma = HuffmanSpec::build_optimal(counts[0].dc);
    ac_luma = HuffmanSpec::build_optimal(counts[0].ac);
    if (color) {
      dc_chroma = HuffmanSpec::build_optimal(counts[1].dc);
      ac_chroma = HuffmanSpec::build_optimal(counts[1].ac);
    }
  }

  const HuffmanEncoder dc_enc_luma(dc_luma);
  const HuffmanEncoder ac_enc_luma(ac_luma);
  const HuffmanEncoder dc_enc_chroma(dc_chroma);
  const HuffmanEncoder ac_enc_chroma(ac_chroma);

  std::vector<std::uint8_t> out;
  out.push_back(0xFF);
  out.push_back(kSOI);
  write_app0(out);
  write_comment(out, config.comment);
  write_dqt(out, luma_q, 0);
  if (color) write_dqt(out, chroma_q, 1);
  write_sof0(out, img.width(), img.height(), comps.data(), comps.size());
  write_dht(out, dc_luma, 0, 0);
  write_dht(out, ac_luma, 1, 0);
  if (color) {
    write_dht(out, dc_chroma, 0, 1);
    write_dht(out, ac_chroma, 1, 1);
  }
  if (config.restart_interval > 0) write_dri(out, config.restart_interval);
  write_sos_header(out, comps.data(), comps.size());

  BitWriter bw(out);
  std::vector<int> dc_pred(comps.size(), 0);
  for_each_data_unit(
      comps.data(), comps.size(), mcus_x, mcus_y, config.restart_interval,
      [&](std::size_t ci, int gx, int gy) {
        const bool luma_tables = comps[ci].tq == 0;
        encode_block(bw, block_of(ci, gx, gy), dc_pred[ci],
                     luma_tables ? dc_enc_luma : dc_enc_chroma,
                     luma_tables ? ac_enc_luma : ac_enc_chroma);
      },
      [&](int rst_index) {
        bw.put_marker(static_cast<std::uint8_t>(kRST0 + rst_index));
        std::fill(dc_pred.begin(), dc_pred.end(), 0);
      });
  bw.put_marker(kEOI);
  return out;
}

}  // namespace dnj::jpeg
