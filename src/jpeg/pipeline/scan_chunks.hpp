// Chunk splits for the entropy-coded scan of one frame: the decode-side
// twin of bands.hpp for the one stage bands cannot split.
//
// Where a Huffman-coded block starts depends on every bit in front of it,
// so a scan without restart markers has no place to start decoding but
// its first bit. The decoder (jpeg/decoder.cpp) cuts it into chunks at
// fixed byte offsets anyway. Chunk 0 decodes exactly; every other chunk
// decodes speculatively from its first byte, as if a block of MCU unit 0
// started there, into scratch, recording where each block started.
// Huffman codes resynchronise within a few symbols (Klein & Wiseman,
// Comput. J. 46(5), 2003), so the exact decode, arriving from the left,
// soon reaches a recorded block start at the same bit and the same unit
// of the MCU. From there the chunk's blocks are the exact ones, up to a
// per-component DC offset; they are copied to their absolute index, and
// the exact decode continues from the chunk's end. A chunk that never
// syncs is decoded by the exact decode going through it, so the output
// never depends on the speculation: it is the serial decode, bit for bit,
// or the same error.
//
// A restart-marked scan needs no speculation: every restart segment
// starts from a known state, so chunks are runs of whole segments and
// decode exactly.
//
// Cut positions depend only on the scan's byte count, the frame geometry
// and the restart interval (plus a step past any 0xFF in front of a cut),
// never on the thread count or the SIMD level. A scan too small for two
// chunks is one chunk, decoded straight through on the calling thread.
// Speculation needs a second thread: a call that cannot fan out (one
// thread, or inside another parallel loop) decodes a scan without
// restart markers straight through too, as chunk 0.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>

#include "jpeg/bitio.hpp"
#include "jpeg/pipeline/coeff_plane.hpp"

namespace dnj::jpeg::pipeline {

/// Fewest scan bytes one chunk carries. 16 KB is about 350 us of Huffman
/// decode on a 4-core x86-64 (bench/codec_micro `BM_HuffmanDecode`)
/// against a pool hand-off of about 5 us (`BM_PoolHandoff`).
inline constexpr std::size_t kMinChunkBytes = 16384;

/// Fewest blocks one chunk carries, so that a small frame coded at high
/// quality stays one chunk: every 224x224 frame (at most 2352 blocks) is.
inline constexpr std::size_t kMinChunkBlocks = 1200;

/// Number of chunks for a scan of `scan_bytes` bytes that codes `blocks`
/// blocks: as many as both minimums allow, at least one.
inline std::size_t chunk_count(std::size_t scan_bytes, std::size_t blocks) {
  return std::max<std::size_t>(1, std::min(scan_bytes / kMinChunkBytes,
                                           blocks / kMinChunkBlocks));
}

/// A grow-only array that is never value-initialised: pages nobody writes
/// are never touched, so only what a decode really uses becomes resident.
template <typename T>
class ScratchArray {
 public:
  /// At least `n` elements; contents unspecified.
  T* reserve(std::size_t n) {
    if (n > capacity_) {
      data_.reset(new T[n]);
      capacity_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

/// One chunk of a scan and what decoding it found.
struct ScanChunk {
  std::size_t begin = 0, end = 0;  ///< byte range within the scan
  /// Restart-marked scans: the chunk's restart segments.
  std::size_t first_segment = 0, end_segment = 0;

  // Written by the chunk's own decode.
  std::uint64_t data_bits = 0;  ///< 8 x the data bytes in [begin, end)
  std::uint64_t first_bit = 0;  ///< data bit of the scan at `begin`
  bool marker = false;          ///< a marker lies in [begin, end)
  std::size_t scratch = 0;      ///< offset, in blocks, into the scratch arenas
  std::size_t blocks = 0;       ///< blocks decoded
  bool failed = false;          ///< the last run of them ended on a block that did not decode
  std::array<int, kMaxComponents> dc{};  ///< DC predictors after them
  BitReader reader{nullptr, 0};          ///< reader state after them
  std::exception_ptr error;              ///< an exact chunk's failure

  // Written when the exact decode syncs with a speculative chunk.
  std::size_t sync = 0;         ///< first exact block of the chunk
  std::size_t placed = 0;       ///< blocks copied from there
  std::size_t first_block = 0;  ///< scan index of block `sync`
  std::array<int, kMaxComponents> dc_offset{};  ///< added to each copied DC
};

}  // namespace dnj::jpeg::pipeline
