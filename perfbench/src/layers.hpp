// Layer probes of the traced run: the benchmark's own calls into each
// layer's public functions, timed from here. The program under test gets no
// instrumentation of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/views.hpp"
#include "common.hpp"
#include "image/image.hpp"
#include "jpeg/encoder.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "spans.hpp"

namespace perfbench {

/// Encoder stages timed one by one on the op's own input: colour
/// transform + tiling (tile), forward DCT, quantize + zig-zag, Huffman
/// encode. Supports what the benchmark encodes: grayscale and 4:4:4.
struct EncodeStages {
  std::uint64_t tile = 0, fdct = 0, quant = 0, entropy = 0;
  std::size_t blocks = 0;
  std::uint64_t sum() const { return tile + fdct + quant + entropy; }
};

/// Decoder stages timed one by one: Huffman decode (decode_coefficients),
/// dequantize + IDCT, untile + chroma upsample + colour transform.
struct DecodeStages {
  std::uint64_t huff = 0, dequant_idct = 0, untile = 0;
  std::size_t blocks = 0;
  std::uint64_t sum() const { return huff + dequant_idct + untile; }
};

EncodeStages replay_encode(const dnj::image::Image& img, const dnj::jpeg::EncoderConfig& cfg,
                           dnj::jpeg::pipeline::CodecContext& ctx);
DecodeStages replay_decode(dnj::ByteSpan bytes, dnj::jpeg::pipeline::CodecContext& ctx,
                           int threads);

/// Running totals of the jpeg layer over a traced run.
struct JpegTotals {
  EncodeStages enc;
  DecodeStages dec;
  std::uint64_t encode_calls_ns = 0, decode_calls_ns = 0;
  std::size_t encode_calls = 0, decode_calls = 0;

  void add(const EncodeStages& s, std::uint64_t whole_ns);
  void add(const DecodeStages& s, std::uint64_t whole_ns);
  /// jpeg.* per-layer metrics (zero for a direction the workload never ran).
  void report(Result& result) const;
};

/// Times one whole jpeg::encode call and its stage replay on `img` and
/// lays out a jpeg.encode span (stages as children) at `cursor`.
void traced_encode(const dnj::image::Image& img, const dnj::jpeg::EncoderConfig& cfg,
                   dnj::jpeg::pipeline::CodecContext& ctx, Cursor& cursor, SpanLog& log,
                   std::uint64_t trace, JpegTotals& totals);

/// Same for jpeg::decode; returns the decoded image.
dnj::image::Image traced_decode(dnj::ByteSpan bytes, dnj::jpeg::pipeline::CodecContext& ctx,
                                int threads, Cursor& cursor, SpanLog& log,
                                std::uint64_t trace, JpegTotals& totals);

/// Emits the per-layer self-time rows/metrics of a span log: <layer>.self_us
/// per op for every layer in `layers`, trace.e2e_us (mean root duration) and
/// trace.unattributed_share (root self time over root time). The self
/// times sum to the root time by construction (see spans.hpp); the replay
/// time clipped off each layer's spans is reported as span.<layer>.clipped_us.
void report_self_times(const SpanLog& log, const std::vector<std::string>& layers,
                       const std::string& root_stage, Result& result);

}  // namespace perfbench
