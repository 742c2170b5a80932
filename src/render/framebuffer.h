#ifndef TIOGA2_RENDER_FRAMEBUFFER_H_
#define TIOGA2_RENDER_FRAMEBUFFER_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/result.h"
#include "draw/color.h"

namespace tioga2::render {

/// An RGB8 pixel buffer. This is the substitute for the X11 canvas window of
/// the original system: every figure reproduction renders into one of these
/// and (optionally) writes a PPM file for inspection.
class Framebuffer {
 public:
  Framebuffer(int width, int height, draw::Color background = draw::kWhite);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Fills with `color`.
  void Clear(const draw::Color& color);

  /// Writes one pixel; out-of-bounds writes are silently discarded.
  void Set(int x, int y, const draw::Color& color) {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
    pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
            static_cast<size_t>(x)] = color;
  }

  /// Fills pixels [x0, x1] of row y. Unlike Set there is no bounds test: the
  /// caller guarantees 0 <= x0, x1 < width() and 0 <= y < height(), or
  /// x0 > x1 (an empty span).
  void FillSpan(int y, int x0, int x1, const draw::Color& color) {
    if (x0 > x1) return;
    draw::Color* row = pixels_.data() + static_cast<size_t>(y) * static_cast<size_t>(width_);
    std::fill(row + x0, row + x1 + 1, color);
  }

  /// Reads one pixel; out-of-bounds reads return black.
  draw::Color Get(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) return draw::kBlack;
    return pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
                   static_cast<size_t>(x)];
  }

  /// Number of pixels exactly equal to `color` (used by golden tests).
  size_t CountPixels(const draw::Color& color) const;

  /// Number of pixels differing from the background/most drawing activity
  /// checks ("did anything render?").
  size_t CountPixelsNotEqual(const draw::Color& color) const;

  /// Binary P6 PPM encoding.
  std::string ToPpm() const;

  /// Writes a P6 PPM file.
  Status WritePpm(const std::string& path) const;

 private:
  int width_;
  int height_;
  std::vector<draw::Color> pixels_;
};

}  // namespace tioga2::render

#endif  // TIOGA2_RENDER_FRAMEBUFFER_H_
