#include "image/resample.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "simd/dispatch.hpp"

namespace dnj::image {

PlaneF downsample_2x2(const PlaneF& plane) {
  PlaneF out;
  downsample_2x2_into(plane, out);
  return out;
}

void downsample_2x2_into(const PlaneF& plane, PlaneF& out) {
  const int oh = (plane.height() + 1) / 2;
  out.reset((plane.width() + 1) / 2, oh);
  downsample_2x2_rows(plane, out, 0, oh);
}

void downsample_2x2_rows(const PlaneF& plane, PlaneF& out, int y0, int y1) {
  const int w = plane.width();
  const int h = plane.height();
  const int ow = out.width();
  // Output columns below full_x see both source columns, rows below full_y
  // both source rows; only an odd trailing column/row averages fewer. Every
  // output sums its in-plane samples from 0 in (0,0),(1,0),(0,1),(1,1)
  // order and divides by their count.
  const int full_x = w / 2;
  const int full_y = h / 2;
  for (int y = y0; y < y1; ++y) {
    const float* r0 = plane.data().data() + static_cast<std::size_t>(2 * y) * w;
    float* o = out.data().data() + static_cast<std::size_t>(y) * ow;
    if (y < full_y) {
      const float* r1 = r0 + w;
      for (int x = 0; x < full_x; ++x) {
        float sum = 0.0f;
        sum += r0[2 * x];
        sum += r0[2 * x + 1];
        sum += r1[2 * x];
        sum += r1[2 * x + 1];
        o[x] = sum / 4.0f;
      }
      if (full_x < ow) {
        float sum = 0.0f;
        sum += r0[2 * full_x];
        sum += r1[2 * full_x];
        o[full_x] = sum / 2.0f;
      }
    } else {
      for (int x = 0; x < full_x; ++x) {
        float sum = 0.0f;
        sum += r0[2 * x];
        sum += r0[2 * x + 1];
        o[x] = sum / 2.0f;
      }
      if (full_x < ow) {
        float sum = 0.0f;
        sum += r0[2 * full_x];
        o[full_x] = sum / 1.0f;
      }
    }
  }
}

PlaneF upsample_2x2(const PlaneF& plane, int out_w, int out_h) {
  if ((out_w + 1) / 2 != plane.width() || (out_h + 1) / 2 != plane.height())
    throw std::invalid_argument("upsample_2x2: output dims inconsistent with input");
  PlaneF out(out_w, out_h);
  std::vector<float> scratch(2 * static_cast<std::size_t>(out_w));
  Upsample2x2Rows rows(plane.data().data(), static_cast<std::size_t>(plane.width()),
                       plane.width(), plane.height(), out_w, scratch.data());
  for (int y = 0; y < out_h; ++y)
    rows.row(y, out.data().data() + static_cast<std::size_t>(y) * out_w);
  return out;
}

void Upsample2x2Rows::row(int y, float* out) {
  // Same centre mapping as the horizontal pass (upsample2x_row), evaluated
  // once per output row: taps y0/y1 and weight wy.
  const float fy = (static_cast<float>(y) + 0.5f) / 2.0f - 0.5f;
  const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, ih_ - 1);
  const int y1 = std::min(y0 + 1, ih_ - 1);
  const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
  const float* top = source_row(y0);
  const float* bot = source_row(y1);
  simd::kernels().blend_rows(top, bot, wy, out_w_, out);
}

const float* Upsample2x2Rows::source_row(int sy) {
  // y0 and y1 differ by at most one, so slot sy & 1 never evicts the other
  // tap of the same output row.
  const int slot = sy & 1;
  float* buf = scratch_ + static_cast<std::size_t>(slot) * out_w_;
  if (cached_[slot] != sy) {
    simd::kernels().upsample2x_row(src_ + static_cast<std::size_t>(sy) * stride_, iw_, buf,
                                   out_w_);
    cached_[slot] = sy;
  }
  return buf;
}

PlaneF resize_nearest(const PlaneF& plane, int out_w, int out_h) {
  if (out_w <= 0 || out_h <= 0)
    throw std::invalid_argument("resize_nearest: dims must be positive");
  PlaneF out(out_w, out_h);
  for (int y = 0; y < out_h; ++y) {
    const int sy = std::min(static_cast<int>(static_cast<long long>(y) * plane.height() / out_h),
                            plane.height() - 1);
    for (int x = 0; x < out_w; ++x) {
      const int sx = std::min(static_cast<int>(static_cast<long long>(x) * plane.width() / out_w),
                              plane.width() - 1);
      out.at(x, y) = plane.at(sx, sy);
    }
  }
  return out;
}

}  // namespace dnj::image
