// Baseline JFIF decoder: parses the marker stream, decodes the single
// interleaved scan, dequantizes, inverse-transforms, upsamples chroma and
// converts back to RGB (or grayscale). Supports everything our encoder
// emits — 8-bit baseline, 1 or 3 components, sampling factors 1x1/2x2,
// 8- and 16-bit DQT, restart markers — plus SOF1 streams.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/views.hpp"
#include "image/image.hpp"
#include "jpeg/pipeline/codec_context.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jpeg {

/// Parsed header facts, exposed for tests and table-inspection tools.
struct JpegInfo {
  int width = 0;
  int height = 0;
  int components = 0;
  int max_h = 1, max_v = 1;
  int restart_interval = 0;
  std::optional<QuantTable> quant_tables[4];
  std::string comment;
};

/// Decodes a complete JFIF stream. Throws std::runtime_error on malformed
/// input. The context-taking overload decodes through the caller's arenas
/// (coefficient stores, dequantized planes) with batched dequantize + IDCT;
/// the other uses the calling thread's shared context. ByteSpan converts
/// implicitly from std::vector<uint8_t>; callers holding mapped or foreign
/// buffers pass {ptr, size} without a copy.
///
/// Streams with restart intervals decode their independent restart segments
/// on runtime::parallel_for, and the pixel stages (dequantize + IDCT +
/// untile, then upsample + colour convert) of a frame large enough for two
/// bands of pipeline::kMinBandBlocks blocks run band by band on it too.
/// `num_threads` follows the usual knob semantics (0 = DNJ_THREADS /
/// hardware concurrency, 1 = serial), exactly like encode's. Output is
/// bit-identical at every thread count.
image::Image decode(ByteSpan bytes);
image::Image decode(ByteSpan bytes, pipeline::CodecContext& ctx, int num_threads = 0);

/// Entropy-decodes the scan into ctx.decode_coeffs (one natural-order
/// QuantPlane per component, padded to the MCU lattice) without
/// dequantizing or reconstructing pixels, and returns the parsed header
/// facts. This is the Huffman-decode stage in isolation — benches time it
/// per stage, and tests memcmp the coefficient planes across decoder
/// configurations.
JpegInfo decode_coefficients(ByteSpan bytes, pipeline::CodecContext& ctx,
                             int num_threads = 0);

/// Parses markers up to (and including) SOS without decoding pixel data.
JpegInfo parse_info(ByteSpan bytes);

/// Size of the entropy-coded scan payload (bytes between the SOS header and
/// the EOI marker). This is the per-image marginal transfer cost in a
/// deployment where quantization/Huffman tables are shipped once — the
/// regime the paper's compression-rate numbers describe (headers are
/// negligible for 256x256 ImageNet files but dominate 32x32 test images).
std::size_t scan_byte_count(ByteSpan bytes);

}  // namespace dnj::jpeg
