#include "image/color.hpp"

#include "simd/dispatch.hpp"

namespace dnj::image {

std::array<float, 3> rgb_to_ycbcr(float r, float g, float b) {
  const float y = 0.299f * r + 0.587f * g + 0.114f * b;
  const float cb = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
  const float cr = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
  return {y, cb, cr};
}

std::array<float, 3> ycbcr_to_rgb(float y, float cb, float cr) {
  const float r = y + 1.402f * (cr - 128.0f);
  const float g = y - 0.344136f * (cb - 128.0f) - 0.714136f * (cr - 128.0f);
  const float b = y + 1.772f * (cb - 128.0f);
  return {r, g, b};
}

YCbCrPlanes to_ycbcr(const Image& img) {
  YCbCrPlanes out;
  to_ycbcr_into(img, out);
  return out;
}

void to_ycbcr_into(PixelView img, YCbCrPlanes& out) {
  out.y.reset(img.width, img.height);
  out.cb.reset(img.width, img.height);
  out.cr.reset(img.width, img.height);
  to_ycbcr_rows(img, out, 0, img.height);
}

void to_ycbcr_rows(PixelView img, YCbCrPlanes& out, int y0, int y1) {
  if (img.channels == 1) {
    for (int y = y0; y < y1; ++y)
      for (int x = 0; x < img.width; ++x) {
        out.y.at(x, y) = static_cast<float>(img.at(x, y, 0));
        out.cb.at(x, y) = 128.0f;
        out.cr.at(x, y) = 128.0f;
      }
    return;
  }
  // The interleaved pixel buffer and the three planes are contiguous and
  // congruent, so a row range is one kernel call.
  const std::size_t first = static_cast<std::size_t>(y0) * img.width;
  simd::kernels().rgb_to_ycbcr(img.pixels + 3 * first,
                               static_cast<std::size_t>(y1 - y0) * img.width,
                               out.y.data().data() + first, out.cb.data().data() + first,
                               out.cr.data().data() + first);
}

void to_ycbcr_into(const Image& img, YCbCrPlanes& out) {
  to_ycbcr_into(img.view(), out);
}

Image to_rgb(const YCbCrPlanes& planes, int width, int height) {
  return to_rgb(planes.y, planes.cb, planes.cr, width, height);
}

Image to_rgb(const PlaneF& yp, const PlaneF& cb, const PlaneF& cr, int width, int height) {
  if (yp.width() < width || yp.height() < height || cb.width() < width ||
      cb.height() < height || cr.width() < width || cr.height() < height)
    throw std::invalid_argument("to_rgb: planes smaller than target size");
  Image img(width, height, 3);
  // Planes may be wider than the image (block padding), so convert row by
  // row from each plane's row start.
  for (int y = 0; y < height; ++y)
    simd::kernels().ycbcr_to_rgb_row(
        yp.data().data() + static_cast<std::size_t>(y) * yp.width(),
        cb.data().data() + static_cast<std::size_t>(y) * cb.width(),
        cr.data().data() + static_cast<std::size_t>(y) * cr.width(), width,
        img.data().data() + static_cast<std::size_t>(y) * width * 3);
  return img;
}

}  // namespace dnj::image
