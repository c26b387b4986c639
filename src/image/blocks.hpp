// 8x8 block partitioning used by the JPEG pipeline and by Algorithm 1 of the
// paper (frequency component analysis). Planes whose dimensions are not
// multiples of 8 are padded by edge replication, which is the standard JPEG
// convention and avoids injecting artificial high-frequency energy at the
// border.
#pragma once

#include <array>
#include <vector>

#include "image/image.hpp"

namespace dnj::image {

inline constexpr int kBlockDim = 8;
inline constexpr int kBlockSize = kBlockDim * kBlockDim;

/// One 8x8 block of float samples in row-major order.
using BlockF = std::array<float, kBlockSize>;

/// Rounds `n` up to the next multiple of 8.
int padded_dim(int n);

/// Pads a plane to multiple-of-8 dimensions by replicating the last row and
/// column. Returns the input unchanged when already aligned.
PlaneF pad_to_blocks(const PlaneF& plane);

/// Splits a plane into row-major 8x8 blocks. The plane is padded internally
/// if needed; blocks_x/blocks_y receive the grid dimensions when non-null.
std::vector<BlockF> split_blocks(const PlaneF& plane, int* blocks_x = nullptr,
                                 int* blocks_y = nullptr);

/// Inverse of split_blocks: reassembles a plane of size (blocks_x*8,
/// blocks_y*8) from a row-major block list.
PlaneF merge_blocks(const std::vector<BlockF>& blocks, int blocks_x, int blocks_y);

/// Applies the JPEG level shift (x - 128) in place.
void level_shift(BlockF& block);

/// Undoes the level shift (x + 128) in place.
void level_unshift(BlockF& block);

// ---------------------------------------------------------------------------
// Zero-allocation tiling primitives (the codec-pipeline hot path).
//
// Blocks are stored contiguously with a stride of kBlockSize floats: block
// (bx, by) of a (grid_bx, grid_by) grid lives at
//   dst[(by * grid_bx + bx) * kBlockSize]
// in row-major sample order. The grid may be larger than the padded plane
// (4:2:0 luma pads to even MCU multiples); out-of-plane samples are filled
// by edge replication, exactly like pad_to_blocks. `bias` is added to every
// sample, so passing -128 fuses the JPEG level shift into the tiling pass.

/// Tiles `plane` into `grid_bx * grid_by` 8x8 blocks at `dst` (which must
/// hold grid_bx * grid_by * kBlockSize floats). No allocation.
void tile_blocks_into(const PlaneF& plane, int grid_bx, int grid_by, float* dst,
                      float bias = 0.0f);

/// Tiles channel `c` of `img` directly into the block grid, fusing the
/// u8 -> float conversion (and `bias`, i.e. the level shift) into the
/// tiling pass — the grayscale encode path skips the intermediate PlaneF
/// entirely. Same layout and replication semantics as tile_blocks_into.
/// The PixelView form is the primary (the encoder reads images through
/// views); the Image overload forwards.
void tile_image_blocks_into(PixelView img, int c, int grid_bx, int grid_by,
                            float* dst, float bias = 0.0f);
void tile_image_blocks_into(const Image& img, int c, int grid_bx, int grid_by,
                            float* dst, float bias = 0.0f);

/// Inverse of tile_blocks_into: writes the top-left plane.width() x
/// plane.height() samples of the block grid back into `plane`, adding
/// `bias` (pass +128 to undo the level shift). No allocation.
void untile_blocks_from(const float* src, int grid_bx, int grid_by, PlaneF& plane,
                        float bias = 0.0f);

// Row-band forms. Each touches only block rows [by0, by1) of the grid (and,
// for untiling, only the plane rows those blocks cover), writing exactly
// the samples the whole-grid call writes there, so disjoint bands may run
// concurrently and their union equals the whole-grid call byte for byte.

/// Block rows [by0, by1) of tile_blocks_into.
void tile_block_rows_into(const PlaneF& plane, int grid_bx, int by0, int by1, float* dst,
                          float bias = 0.0f);

/// Block rows [by0, by1) of tile_image_blocks_into.
void tile_image_block_rows_into(PixelView img, int c, int grid_bx, int by0, int by1,
                                float* dst, float bias = 0.0f);

/// Block rows [by0, by1) of untile_blocks_from.
void untile_block_rows_from(const float* src, int grid_bx, int by0, int by1, PlaneF& plane,
                            float bias = 0.0f);

}  // namespace dnj::image
