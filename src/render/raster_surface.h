#ifndef TIOGA2_RENDER_RASTER_SURFACE_H_
#define TIOGA2_RENDER_RASTER_SURFACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "render/framebuffer.h"
#include "render/surface.h"

namespace tioga2::render {

/// Software rasterizer drawing into a Framebuffer: Bresenham lines (with
/// dash patterns), midpoint circles, even-odd scanline polygon fill, and
/// bitmap-font text.
class RasterSurface : public Surface {
 public:
  /// `framebuffer` must outlive the surface.
  explicit RasterSurface(Framebuffer* framebuffer) : fb_(framebuffer) { UpdateBox(); }

  int width() const override { return fb_->width(); }
  int height() const override { return fb_->height(); }

  void Clear(const draw::Color& color) override { fb_->Clear(color); }
  void DrawPoint(double x, double y, int thickness, const draw::Color& color) override;
  void DrawLine(double x1, double y1, double x2, double y2, const draw::Style& style,
                const draw::Color& color) override;
  void DrawRect(double x, double y, double w, double h, const draw::Style& style,
                const draw::Color& color) override;
  void DrawCircle(double cx, double cy, double radius, const draw::Style& style,
                  const draw::Color& color) override;
  void DrawPolygon(const std::vector<draw::Point>& points, const draw::Style& style,
                   const draw::Color& color) override;
  void DrawText(const std::string& text, double x, double y, double height,
                const draw::Color& color) override;

  void PushViewport(const DeviceRect& target, double source_width,
                    double source_height) override {
    transform_.Push(target, source_width, source_height);
    UpdateBox();
  }
  void PopViewport() override {
    transform_.Pop();
    UpdateBox();
  }

  /// True pixel clipping: every primitive writes only inside the writable
  /// pixel box (the framebuffer bounds intersected with the transform
  /// stack's clip), so pixels outside `rect` are provably untouched between
  /// PushClip and PopClip.
  void PushClip(const DeviceRect& rect) override {
    transform_.PushClip(rect);
    UpdateBox();
  }
  void PopClip() override {
    transform_.Pop();
    UpdateBox();
  }

 private:
  /// An inclusive integer pixel box; empty when x0 > x1 or y0 > y1.
  struct PixelBox {
    int x0 = 0;
    int y0 = 0;
    int x1 = -1;
    int y1 = -1;

    bool empty() const { return x0 > x1 || y0 > y1; }
    bool Contains(int64_t x, int64_t y) const {
      return x >= x0 && x <= x1 && y >= y0 && y <= y1;
    }
  };

  /// Recomputes box_ from the framebuffer bounds and the current clip; runs
  /// on every transform-stack change.
  void UpdateBox();
  /// Fills the part of the inclusive block [x0, x1] × [y0, y1] inside box_.
  void FillBlock(int64_t x0, int64_t y0, int64_t x1, int64_t y1, const draw::Color& color);
  /// Writes a pixel block of side `thickness` centred on device (x, y),
  /// limited to box_.
  void PlotDevice(int x, int y, int thickness, const draw::Color& color);

  Framebuffer* fb_;
  TransformStack transform_;
  /// The pixels a primitive may write: the framebuffer bounds intersected
  /// with the current clip. Exactly the pixels that pass both
  /// TransformStack::Clipped and the framebuffer's bounds test.
  PixelBox box_;
};

}  // namespace tioga2::render

#endif  // TIOGA2_RENDER_RASTER_SURFACE_H_
