#include "image/blocks.hpp"

#include <algorithm>

#include "simd/dispatch.hpp"

namespace dnj::image {

int padded_dim(int n) { return (n + kBlockDim - 1) / kBlockDim * kBlockDim; }

PlaneF pad_to_blocks(const PlaneF& plane) {
  const int pw = padded_dim(plane.width());
  const int ph = padded_dim(plane.height());
  if (pw == plane.width() && ph == plane.height()) return plane;
  PlaneF out(pw, ph);
  for (int y = 0; y < ph; ++y) {
    const int sy = std::min(y, plane.height() - 1);
    for (int x = 0; x < pw; ++x) {
      const int sx = std::min(x, plane.width() - 1);
      out.at(x, y) = plane.at(sx, sy);
    }
  }
  return out;
}

std::vector<BlockF> split_blocks(const PlaneF& plane, int* blocks_x, int* blocks_y) {
  const PlaneF padded = pad_to_blocks(plane);
  const int bx = padded.width() / kBlockDim;
  const int by = padded.height() / kBlockDim;
  if (blocks_x) *blocks_x = bx;
  if (blocks_y) *blocks_y = by;
  std::vector<BlockF> blocks(static_cast<std::size_t>(bx) * by);
  for (int byi = 0; byi < by; ++byi) {
    for (int bxi = 0; bxi < bx; ++bxi) {
      BlockF& blk = blocks[static_cast<std::size_t>(byi) * bx + bxi];
      for (int y = 0; y < kBlockDim; ++y)
        for (int x = 0; x < kBlockDim; ++x)
          blk[y * kBlockDim + x] = padded.at(bxi * kBlockDim + x, byi * kBlockDim + y);
    }
  }
  return blocks;
}

PlaneF merge_blocks(const std::vector<BlockF>& blocks, int blocks_x, int blocks_y) {
  if (blocks.size() != static_cast<std::size_t>(blocks_x) * blocks_y)
    throw std::invalid_argument("merge_blocks: grid does not match block count");
  PlaneF out(blocks_x * kBlockDim, blocks_y * kBlockDim);
  for (int byi = 0; byi < blocks_y; ++byi) {
    for (int bxi = 0; bxi < blocks_x; ++bxi) {
      const BlockF& blk = blocks[static_cast<std::size_t>(byi) * blocks_x + bxi];
      for (int y = 0; y < kBlockDim; ++y)
        for (int x = 0; x < kBlockDim; ++x)
          out.at(bxi * kBlockDim + x, byi * kBlockDim + y) = blk[y * kBlockDim + x];
    }
  }
  return out;
}

void level_shift(BlockF& block) {
  for (float& v : block) v -= 128.0f;
}

void level_unshift(BlockF& block) {
  for (float& v : block) v += 128.0f;
}

namespace {

// First source row of block row `by0` under edge replication: block row
// by0 starts at plane row by0 * 8, or repeats the last row when the grid
// runs past the plane. Offsetting the source there and shrinking its
// height keeps min(y, h - 1) for every row of the band.
int band_source_row(int by0, int h) { return std::min(by0 * kBlockDim, h - 1); }

}  // namespace

void tile_blocks_into(const PlaneF& plane, int grid_bx, int grid_by, float* dst,
                      float bias) {
  tile_block_rows_into(plane, grid_bx, 0, grid_by, dst, bias);
}

void tile_block_rows_into(const PlaneF& plane, int grid_bx, int by0, int by1, float* dst,
                          float bias) {
  const int r0 = band_source_row(by0, plane.height());
  simd::kernels().tile_f32(plane.data().data() + static_cast<std::size_t>(r0) * plane.width(),
                           plane.width(), plane.height() - r0, grid_bx, by1 - by0,
                           dst + static_cast<std::size_t>(by0) * grid_bx * kBlockSize, bias);
}

void tile_image_blocks_into(PixelView img, int c, int grid_bx, int grid_by,
                            float* dst, float bias) {
  tile_image_block_rows_into(img, c, grid_bx, 0, grid_by, dst, bias);
}

void tile_image_blocks_into(const Image& img, int c, int grid_bx, int grid_by,
                            float* dst, float bias) {
  tile_image_blocks_into(img.view(), c, grid_bx, grid_by, dst, bias);
}

void tile_image_block_rows_into(PixelView img, int c, int grid_bx, int by0, int by1,
                                float* dst, float bias) {
  if (c < 0 || c >= img.channels)
    throw std::invalid_argument("tile_image_blocks_into: channel out of range");
  const int r0 = band_source_row(by0, img.height);
  simd::kernels().tile_u8(
      img.pixels + static_cast<std::size_t>(r0) * img.width * img.channels + c, img.width,
      img.height - r0, img.channels, grid_bx, by1 - by0,
      dst + static_cast<std::size_t>(by0) * grid_bx * kBlockSize, bias);
}

void untile_blocks_from(const float* src, int grid_bx, int grid_by, PlaneF& plane,
                        float bias) {
  if (plane.width() > grid_bx * kBlockDim || plane.height() > grid_by * kBlockDim)
    throw std::invalid_argument("untile_blocks_from: plane exceeds block grid");
  untile_block_rows_from(src, grid_bx, 0, grid_by, plane, bias);
}

void untile_block_rows_from(const float* src, int grid_bx, int by0, int by1, PlaneF& plane,
                            float bias) {
  if (plane.width() > grid_bx * kBlockDim)
    throw std::invalid_argument("untile_blocks_from: plane exceeds block grid");
  const int y0 = by0 * kBlockDim;
  const int y1 = std::min(plane.height(), by1 * kBlockDim);
  if (y1 <= y0) return;
  simd::kernels().untile_f32(src + static_cast<std::size_t>(by0) * grid_bx * kBlockSize,
                             grid_bx, by1 - by0,
                             plane.data().data() + static_cast<std::size_t>(y0) * plane.width(),
                             plane.width(), y1 - y0, bias);
}

}  // namespace dnj::image
