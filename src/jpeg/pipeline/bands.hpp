// Band splits for the per-image pixel stages of one frame.
//
// The encode front end (colour convert, 4:2:0 downsample, tile, FDCT,
// quantize) and the decode reconstruction (dequantize + IDCT + untile,
// upsample + colour convert) are embarrassingly parallel across the rows
// of a frame. A BandPlan cuts the frame's MCU rows into bands and runs a
// stage's body once per band on runtime::parallel_for, so one large frame
// can use every core.
//
// Band boundaries depend only on the frame geometry (blocks per MCU row
// and MCU row count), never on the thread count, and every band writes a
// disjoint range of the context arenas. Each stage is therefore
// byte-identical at every thread count by construction. A frame too small
// for two bands runs the whole stage inline on the calling thread with no
// pool traffic at all.
#pragma once

#include <algorithm>
#include <cstddef>

#include "runtime/parallel.hpp"

namespace dnj::jpeg::pipeline {

/// Fewest blocks, summed over components, that one band carries. One
/// parallel region costs about 5 us of wall time on a 4-core x86-64
/// (bench/codec_micro `BM_PoolHandoff/chunks:4`), while 4096 blocks of the
/// cheapest banded stage, the AVX2 batched FDCT at about 40 Mblocks/s
/// (`BM_FdctBatch/avx2`), take about 100 us: the hand-off stays near 5% of
/// a band's work. A 224x224 frame (at most 2352 blocks) is one band; a
/// 1080p frame is a dozen or more.
inline constexpr std::size_t kMinBandBlocks = 4096;

/// MCU rows [first_row, end_row) of band `index`.
struct Band {
  int index = 0;
  int first_row = 0;
  int end_row = 0;
};

class BandPlan {
 public:
  /// Cuts `mcus_y` MCU rows of `blocks_per_mcu_row` blocks each (summed
  /// over components) into bands of at least kMinBandBlocks blocks; only
  /// the last band may carry fewer.
  BandPlan(std::size_t blocks_per_mcu_row, int mcus_y)
      : mcus_y_(mcus_y),
        rows_per_band_(static_cast<int>(
            (kMinBandBlocks + blocks_per_mcu_row - 1) / std::max<std::size_t>(blocks_per_mcu_row, 1))),
        bands_((mcus_y + rows_per_band_ - 1) / rows_per_band_) {}

  int bands() const { return bands_; }

  Band band(int index) const {
    return {index, index * rows_per_band_, std::min(mcus_y_, (index + 1) * rows_per_band_)};
  }

  /// body(band) once per band. Bands run on runtime::parallel_for with the
  /// usual `num_threads` knob (0 = DNJ_THREADS / hardware concurrency); a
  /// one-band plan, or a call nested inside another parallel loop, runs
  /// inline on the calling thread.
  template <typename Body>
  void run(int num_threads, const Body& body) const {
    runtime::parallel_for(
        0, static_cast<std::size_t>(bands_), 1,
        [&](std::size_t b) { body(band(static_cast<int>(b))); }, num_threads);
  }

 private:
  int mcus_y_;
  int rows_per_band_;
  int bands_;
};

}  // namespace dnj::jpeg::pipeline
