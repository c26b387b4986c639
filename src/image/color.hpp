// JFIF full-range BT.601 color transform (the one baseline JPEG uses).
//
//   Y  =  0.299 R + 0.587 G + 0.114 B
//   Cb = -0.168736 R - 0.331264 G + 0.5 B + 128
//   Cr =  0.5 R - 0.418688 G - 0.081312 B + 128
//
// All planes are full range [0, 255]; no studio-swing scaling is applied.
#pragma once

#include <array>

#include "image/image.hpp"

namespace dnj::image {

/// Result of splitting an RGB image into float Y/Cb/Cr planes.
struct YCbCrPlanes {
  PlaneF y;
  PlaneF cb;
  PlaneF cr;
};

/// Per-pixel forward transform. Inputs/outputs are full-range floats.
std::array<float, 3> rgb_to_ycbcr(float r, float g, float b);

/// Per-pixel inverse transform.
std::array<float, 3> ycbcr_to_rgb(float y, float cb, float cr);

/// Converts an interleaved RGB image to planar YCbCr. A grayscale image
/// yields a Y plane and flat (128) chroma planes.
YCbCrPlanes to_ycbcr(const Image& img);

/// Allocation-free variant of to_ycbcr: resizes the planes of `out` in
/// place (reusing their buffers once warm) and fills them with the same
/// values to_ycbcr produces. The PixelView form is the primary (the
/// encoder reads images through views); the Image overload forwards.
void to_ycbcr_into(PixelView img, YCbCrPlanes& out);
void to_ycbcr_into(const Image& img, YCbCrPlanes& out);

/// Pixel rows [y0, y1) of to_ycbcr_into, written into planes the caller
/// already sized to the image. Disjoint row ranges may run concurrently.
void to_ycbcr_rows(PixelView img, YCbCrPlanes& out, int y0, int y1);

/// Reassembles an RGB image from YCbCr planes; all planes must share the
/// target dimensions (or exceed them, for block-padded planes).
Image to_rgb(const YCbCrPlanes& planes, int width, int height);

/// Same transform from three individually owned planes (e.g. codec-context
/// arenas that should not be gathered into a YCbCrPlanes by move).
Image to_rgb(const PlaneF& y, const PlaneF& cb, const PlaneF& cr, int width, int height);

}  // namespace dnj::image
