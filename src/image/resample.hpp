// Chroma resampling for 4:2:0 JPEG. Downsampling is a 2x2 box average (what
// libjpeg's default h2v2 downsampler computes); upsampling is bilinear with
// replicated edges, matching the "fancy upsampling" quality level closely
// enough for round-trip tests.
#pragma once

#include "image/image.hpp"

namespace dnj::image {

/// 2x2 box-average downsample. Odd trailing rows/columns are averaged over
/// the available samples. Output dims are ceil(w/2) x ceil(h/2).
PlaneF downsample_2x2(const PlaneF& plane);

/// Allocation-free variant: resizes `out` in place (reusing its buffer once
/// warm) and writes the same samples downsample_2x2 produces.
void downsample_2x2_into(const PlaneF& plane, PlaneF& out);

/// Bilinear 2x upsample to exactly (out_w, out_h), which must satisfy
/// ceil(out_w/2) == plane.width() and ceil(out_h/2) == plane.height().
PlaneF upsample_2x2(const PlaneF& plane, int out_w, int out_h);

/// Row-streaming form of upsample_2x2 — the one implementation of its
/// bilinear math. It reads the top-left iw x ih samples of a source whose
/// rows are `stride` floats apart (so a block-padded plane is cropped for
/// free) and produces output rows of `out_w` floats on demand. Each source
/// row is upsampled horizontally once (simd upsample2x_row) into one of
/// two caller-owned row buffers; an output row is the vertical blend
/// (simd blend_rows) of the two source rows its centre falls between.
/// Rows requested in ascending order reuse every cached horizontal pass.
class Upsample2x2Rows {
 public:
  /// `scratch` must hold 2 * out_w floats and outlive this object;
  /// (out_w + 1) / 2 must equal iw.
  Upsample2x2Rows(const float* src, std::size_t stride, int iw, int ih, int out_w,
                  float* scratch)
      : src_(src), stride_(stride), iw_(iw), ih_(ih), out_w_(out_w), scratch_(scratch) {}

  /// Writes output row y (out_w floats) to `out`.
  void row(int y, float* out);

 private:
  const float* source_row(int sy);

  const float* src_;
  std::size_t stride_;
  int iw_, ih_, out_w_;
  float* scratch_;
  int cached_[2] = {-1, -1};  // source row held by each scratch slot
};

/// Nearest-neighbour resize to arbitrary dimensions (used by the dataset
/// generator, not the codec).
PlaneF resize_nearest(const PlaneF& plane, int out_w, int out_h);

}  // namespace dnj::image
