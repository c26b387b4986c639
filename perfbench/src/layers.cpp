#include "layers.hpp"

#include <algorithm>

#include "image/blocks.hpp"
#include "image/color.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"

namespace perfbench {

using dnj::image::Image;
using dnj::image::kBlockDim;
using dnj::image::kBlockSize;
using dnj::image::PlaneF;
namespace jpeg = dnj::jpeg;
namespace pipeline = dnj::jpeg::pipeline;

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace

EncodeStages replay_encode(const Image& img, const jpeg::EncoderConfig& cfg,
                           pipeline::CodecContext& ctx) {
  EncodeStages st;
  const int comps = img.channels() == 1 ? 1 : 3;
  const int bx = ceil_div(img.width(), kBlockDim);
  const int by = ceil_div(img.height(), kBlockDim);
  const auto [luma_q, chroma_q] = jpeg::effective_tables(cfg);
  for (int c = 0; c < comps; ++c) {
    ctx.coeff[c].reshape(bx, by);
    ctx.quant[c].reshape(bx, by);
  }
  const std::size_t per_comp = static_cast<std::size_t>(bx) * by;
  st.blocks = per_comp * comps;

  st.tile = time_ns([&] {
    if (comps == 1) {
      dnj::image::tile_image_blocks_into(img, 0, bx, by, ctx.coeff[0].data(), -128.0f);
    } else {
      dnj::image::to_ycbcr_into(img, ctx.ycc);
      const PlaneF* planes[3] = {&ctx.ycc.y, &ctx.ycc.cb, &ctx.ycc.cr};
      for (int c = 0; c < 3; ++c)
        dnj::image::tile_blocks_into(*planes[c], bx, by, ctx.coeff[c].data(), -128.0f);
    }
  });
  st.fdct = time_ns([&] {
    for (int c = 0; c < comps; ++c) jpeg::fdct_batch(ctx.coeff[c].data(), per_comp);
  });
  st.quant = time_ns([&] {
    for (int c = 0; c < comps; ++c)
      jpeg::quantize_zigzag_batch(ctx.coeff[c].data(), per_comp,
                                  ctx.reciprocal_for(c == 0 ? luma_q : chroma_q, c == 0 ? 0 : 1),
                                  ctx.quant[c].data());
  });
  const pipeline::CodecContext::StaticHuffman& huff = ctx.static_huffman();
  std::vector<std::uint8_t> out;
  out.reserve(per_comp * comps * 16);
  st.entropy = time_ns([&] {
    jpeg::BitWriter bw(out);
    if (comps == 1) {
      int dc = 0;
      jpeg::encode_blocks_zz(bw, ctx.quant[0].data(), per_comp, dc, huff.dc_luma, huff.ac_luma);
    } else {
      int dc[3] = {0, 0, 0};
      for (std::size_t b = 0; b < per_comp; ++b)
        for (int c = 0; c < 3; ++c)
          jpeg::encode_block_zz(bw, ctx.quant[c].data() + b * kBlockSize, dc[c],
                                c == 0 ? huff.dc_luma : huff.dc_chroma,
                                c == 0 ? huff.ac_luma : huff.ac_chroma);
    }
    bw.flush();
  });
  return st;
}

DecodeStages replay_decode(dnj::ByteSpan bytes, pipeline::CodecContext& ctx, int threads) {
  DecodeStages st;
  jpeg::JpegInfo info;
  st.huff = time_ns([&] { info = jpeg::decode_coefficients(bytes, ctx, threads); });
  const int comps = info.components;
  std::array<pipeline::CoeffPlane, 3> fp;
  st.dequant_idct = time_ns([&] {
    for (int c = 0; c < comps; ++c) {
      const pipeline::QuantPlane& q = ctx.decode_coeffs[c];
      fp[c].reshape(q.blocks_x(), q.blocks_y());
      const int slot = c == 0 ? 0 : 1;
      const jpeg::QuantTable& table =
          info.quant_tables[slot] ? *info.quant_tables[slot] : *info.quant_tables[0];
      jpeg::dequantize_batch(q.data(), q.block_count(), table, fp[c].data());
      jpeg::idct_batch(fp[c].data(), q.block_count());
    }
  });
  for (int c = 0; c < comps; ++c) st.blocks += ctx.decode_coeffs[c].block_count();
  // Reconstruction exactly as the decoder does it: untile into padded
  // planes, then crop, upsample and re-pad subsampled chroma, then convert
  // to RGB.
  st.untile = time_ns([&] {
    for (int c = 0; c < comps; ++c) {
      PlaneF& plane = ctx.decode_planes[c];
      plane.reset(fp[c].blocks_x() * kBlockDim, fp[c].blocks_y() * kBlockDim);
      dnj::image::untile_blocks_from(fp[c].data(), fp[c].blocks_x(), fp[c].blocks_y(), plane,
                                     128.0f);
    }
    if (comps == 1) {
      Image img(info.width, info.height, 1);
      dnj::image::from_plane(ctx.decode_planes[0], img, 0);
      return;
    }
    const PlaneF& luma = ctx.decode_planes[0];
    if (info.max_h == 2) {
      for (int c = 1; c < 3; ++c) {
        PlaneF& p = ctx.decode_planes[c];
        const int need_w = (info.width + 1) / 2, need_h = (info.height + 1) / 2;
        PlaneF cropped(need_w, need_h);
        for (int y = 0; y < need_h; ++y)
          for (int x = 0; x < need_w; ++x) cropped.at(x, y) = p.at(x, y);
        const PlaneF up = dnj::image::upsample_2x2(cropped, info.width, info.height);
        PlaneF padded(luma.width(), luma.height(), 128.0f);
        for (int y = 0; y < info.height; ++y)
          for (int x = 0; x < info.width; ++x) padded.at(x, y) = up.at(x, y);
        p = std::move(padded);
      }
    }
    (void)dnj::image::to_rgb(luma, ctx.decode_planes[1], ctx.decode_planes[2], info.width,
                             info.height);
  });
  return st;
}

void JpegTotals::add(const EncodeStages& s, std::uint64_t whole_ns) {
  enc.tile += s.tile;
  enc.fdct += s.fdct;
  enc.quant += s.quant;
  enc.entropy += s.entropy;
  enc.blocks += s.blocks;
  encode_calls_ns += whole_ns;
  ++encode_calls;
}

void JpegTotals::add(const DecodeStages& s, std::uint64_t whole_ns) {
  dec.huff += s.huff;
  dec.dequant_idct += s.dequant_idct;
  dec.untile += s.untile;
  dec.blocks += s.blocks;
  decode_calls_ns += whole_ns;
  ++decode_calls;
}

void JpegTotals::report(Result& result) const {
  const auto rate = [](std::size_t blocks, std::uint64_t ns) {
    return ns == 0 ? 0.0 : static_cast<double>(blocks) / 1e6 / (static_cast<double>(ns) * 1e-9);
  };
  result.metric("jpeg.tile_mblk_s", "Mblk/s", rate(enc.blocks, enc.tile));
  result.metric("jpeg.fdct_mblk_s", "Mblk/s", rate(enc.blocks, enc.fdct));
  result.metric("jpeg.quant_mblk_s", "Mblk/s", rate(enc.blocks, enc.quant));
  result.metric("jpeg.entropy_enc_mblk_s", "Mblk/s", rate(enc.blocks, enc.entropy));
  result.metric("jpeg.huff_dec_mblk_s", "Mblk/s", rate(dec.blocks, dec.huff));
  result.metric("jpeg.dequant_idct_mblk_s", "Mblk/s", rate(dec.blocks, dec.dequant_idct));
  result.metric("jpeg.untile_mblk_s", "Mblk/s", rate(dec.blocks, dec.untile));
  result.metric("jpeg.encode_us", "us",
      encode_calls ? static_cast<double>(encode_calls_ns) / 1e3 / encode_calls : 0.0);
  result.metric("jpeg.decode_us", "us",
      decode_calls ? static_cast<double>(decode_calls_ns) / 1e3 / decode_calls : 0.0);
  const double whole = static_cast<double>(encode_calls_ns + decode_calls_ns);
  const double staged = static_cast<double>(enc.sum() + dec.sum());
  result.metric("jpeg.unattributed_share", "ratio",
      whole > 0 ? std::max(0.0, whole - staged) / whole : 0.0);
}

void traced_encode(const Image& img, const jpeg::EncoderConfig& cfg,
                   pipeline::CodecContext& ctx, Cursor& cursor, SpanLog& log,
                   std::uint64_t trace, JpegTotals& totals) {
  const std::uint64_t whole = time_ns([&] { (void)jpeg::encode(img, cfg, ctx); });
  const EncodeStages st = replay_encode(img, cfg, ctx);
  totals.add(st, whole);
  const std::uint32_t id = cursor.place("jpeg.encode", whole);
  Cursor inner(log, trace, id, cursor.last_start(), cursor.last_end());
  inner.place("jpeg.tile", st.tile, st.blocks);
  inner.place("jpeg.fdct", st.fdct, st.blocks);
  inner.place("jpeg.quant", st.quant, st.blocks);
  inner.place("jpeg.entropy_enc", st.entropy, st.blocks);
}

Image traced_decode(dnj::ByteSpan bytes, pipeline::CodecContext& ctx, int threads,
                    Cursor& cursor, SpanLog& log, std::uint64_t trace, JpegTotals& totals) {
  Image out;
  const std::uint64_t whole = time_ns([&] { out = jpeg::decode(bytes, ctx, threads); });
  const DecodeStages st = replay_decode(bytes, ctx, threads);
  totals.add(st, whole);
  const std::uint32_t id = cursor.place("jpeg.decode", whole);
  Cursor inner(log, trace, id, cursor.last_start(), cursor.last_end());
  inner.place("jpeg.huff_dec", st.huff, st.blocks);
  inner.place("jpeg.dequant_idct", st.dequant_idct, st.blocks);
  inner.place("jpeg.untile", st.untile, st.blocks);
  return out;
}

void report_self_times(const SpanLog& log, const std::vector<std::string>& layers,
                       const std::string& root_stage, Result& result) {
  std::size_t roots = 0;
  for (const Span& s : log.spans())
    if (s.parent == 0 && s.stage == root_stage) ++roots;
  if (roots == 0) {
    result.mark_incorrect("traced run recorded no " + root_stage + " spans");
    return;
  }
  const double per_op = 1e-3 / static_cast<double>(roots);  // ns total -> us per op
  const std::map<std::string, double> by_layer = log.self_ns_by_layer();
  const std::map<std::string, double> by_stage = log.self_ns_by_stage();
  const std::map<std::string, double> clipped = log.clipped_ns_by_layer();
  const auto at = [](const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const std::string& layer : layers) {
    result.metric(layer + ".self_us", "us", at(by_layer, layer) * per_op);
    result.row("span." + layer + ".clipped_us", "us", at(clipped, layer) * per_op);
  }
  for (const auto& [stage, ns] : by_stage)
    result.row("span." + stage + ".self_us", "us", ns * per_op);
  const double root = log.root_ns();
  const double unattributed = at(by_stage, root_stage);
  result.metric("trace.e2e_us", "us", root * per_op);
  result.row("trace.unattributed_us", "us", unattributed * per_op);
  result.metric("trace.unattributed_share", "ratio", root > 0 ? unattributed / root : 0.0);
  result.row("trace.ops", "count", static_cast<double>(roots));
}

}  // namespace perfbench
