#include "render/raster_surface.h"

#include <algorithm>
#include <cmath>

#include "render/font.h"

namespace tioga2::render {

namespace {

/// True iff this step of a dash pattern should be drawn.
bool DashOn(const draw::LineStyle style, int step) {
  switch (style) {
    case draw::LineStyle::kSolid:
      return true;
    case draw::LineStyle::kDashed:
      return (step / 4) % 2 == 0;
    case draw::LineStyle::kDotted:
      return step % 3 == 0;
  }
  return true;
}

/// Device coordinates, radii and glyph scales saturate to ±kDeviceLimit
/// before they become ints. The limit is far outside any framebuffer, so a
/// primitive whose coordinates stay inside it is rasterized unchanged. Past
/// it a primitive is far off screen (a line through the view then keeps its
/// visible end but its slope bends). Saturation keeps the integer
/// arithmetic in range at any zoom: Bresenham's error terms stay under 8×
/// the limit, and glyph offsets are computed in int64_t.
constexpr int kDeviceLimit = 1 << 20;

/// lround(v) saturated to [-kDeviceLimit, kDeviceLimit]; NaN maps to
/// -kDeviceLimit.
int DeviceInt(double v) {
  if (!(v > -kDeviceLimit)) return -kDeviceLimit;
  if (v >= kDeviceLimit) return kDeviceLimit;
  return static_cast<int>(std::lround(v));
}

/// Narrows the integer range [*lo, *hi] to the integers p with
/// bound_lo <= p <= bound_hi, leaving it empty (*lo > *hi) when none remain.
/// A NaN bound narrows nothing, as a comparison against NaN rejects nothing
/// in TransformStack::Clipped.
void NarrowRange(double bound_lo, double bound_hi, int* lo, int* hi) {
  if (bound_lo > *lo) *lo = bound_lo > *hi ? *hi + 1 : static_cast<int>(std::ceil(bound_lo));
  if (bound_hi < *hi) *hi = bound_hi < *lo ? *lo - 1 : static_cast<int>(std::floor(bound_hi));
}

}  // namespace

void RasterSurface::UpdateBox() {
  box_ = PixelBox{0, 0, fb_->width() - 1, fb_->height() - 1};
  const TransformStack::Frame& frame = transform_.Top();
  if (frame.has_clip) {
    // Clipped() keeps pixel p iff clip_x0 <= p <= clip_x1 (and likewise in y).
    NarrowRange(frame.clip_x0, frame.clip_x1, &box_.x0, &box_.x1);
    NarrowRange(frame.clip_y0, frame.clip_y1, &box_.y0, &box_.y1);
  }
}

void RasterSurface::FillBlock(int64_t x0, int64_t y0, int64_t x1, int64_t y1,
                              const draw::Color& color) {
  const int64_t ya = std::max<int64_t>(y0, box_.y0);
  const int64_t yb = std::min<int64_t>(y1, box_.y1);
  const int64_t xa = std::max<int64_t>(x0, box_.x0);
  const int64_t xb = std::min<int64_t>(x1, box_.x1);
  if (xa > xb) return;
  for (int64_t y = ya; y <= yb; ++y) {
    fb_->FillSpan(static_cast<int>(y), static_cast<int>(xa), static_cast<int>(xb), color);
  }
}

void RasterSurface::PlotDevice(int x, int y, int thickness, const draw::Color& color) {
  if (thickness <= 1) {
    if (box_.Contains(x, y)) fb_->FillSpan(y, x, x, color);
    return;
  }
  const int64_t half = thickness / 2;
  FillBlock(x - half, y - half, x + half, y + half, color);
}

void RasterSurface::DrawPoint(double x, double y, int thickness,
                              const draw::Color& color) {
  transform_.Apply(&x, &y);
  PlotDevice(DeviceInt(x), DeviceInt(y), std::max(1, thickness), color);
}

void RasterSurface::DrawLine(double x1, double y1, double x2, double y2,
                             const draw::Style& style, const draw::Color& color) {
  transform_.Apply(&x1, &y1);
  transform_.Apply(&x2, &y2);
  const int ix1 = DeviceInt(x1);
  const int iy1 = DeviceInt(y1);
  const int ix2 = DeviceInt(x2);
  const int iy2 = DeviceInt(y2);

  // Every plotted block lies inside the endpoints' bounding box grown by the
  // pen's half-width; a line whose box misses the writable box draws nothing.
  const int64_t half = style.thickness > 1 ? style.thickness / 2 : 0;
  if (std::max(ix1, ix2) + half < box_.x0 || std::min(ix1, ix2) - half > box_.x1 ||
      std::max(iy1, iy2) + half < box_.y0 || std::min(iy1, iy2) - half > box_.y1 ||
      box_.empty()) {
    return;
  }

  int dx = std::abs(ix2 - ix1);
  int dy = -std::abs(iy2 - iy1);
  int sx = ix1 < ix2 ? 1 : -1;
  int sy = iy1 < iy2 ? 1 : -1;
  int err = dx + dy;
  int x = ix1;
  int y = iy1;
  int step = 0;
  while (true) {
    if (DashOn(style.line, step)) PlotDevice(x, y, style.thickness, color);
    if (x == ix2 && y == iy2) break;
    int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y += sy;
    }
    ++step;
  }
}

void RasterSurface::DrawRect(double x, double y, double w, double h,
                             const draw::Style& style, const draw::Color& color) {
  if (style.fill == draw::FillMode::kFilled) {
    double x0 = x;
    double y0 = y;
    double x1 = x + w;
    double y1 = y + h;
    transform_.Apply(&x0, &y0);
    transform_.Apply(&x1, &y1);
    if (x1 < x0) std::swap(x0, x1);
    if (y1 < y0) std::swap(y0, y1);
    FillBlock(DeviceInt(x0), DeviceInt(y0), DeviceInt(x1), DeviceInt(y1),
              color);
    return;
  }
  DrawLine(x, y, x + w, y, style, color);
  DrawLine(x + w, y, x + w, y + h, style, color);
  DrawLine(x + w, y + h, x, y + h, style, color);
  DrawLine(x, y + h, x, y, style, color);
}

void RasterSurface::DrawCircle(double cx, double cy, double radius,
                               const draw::Style& style, const draw::Color& color) {
  transform_.Apply(&cx, &cy);
  double r = transform_.ApplyLength(radius);
  const int icx = DeviceInt(cx);
  const int icy = DeviceInt(cy);
  const int ir = std::max(0, DeviceInt(std::fabs(r)));
  if (ir == 0) {
    PlotDevice(icx, icy, style.thickness, color);
    return;
  }
  if (style.fill == draw::FillMode::kFilled) {
    // Only the rows inside the box; each row's span is then cut to the box.
    const int dy0 = std::max(-ir, box_.y0 - icy);
    const int dy1 = std::min(ir, box_.y1 - icy);
    for (int dy = dy0; dy <= dy1; ++dy) {
      int span = static_cast<int>(std::floor(std::sqrt(
          static_cast<double>(ir) * ir - static_cast<double>(dy) * dy)));
      FillBlock(icx - span, icy + dy, icx + span, icy + dy, color);
    }
    return;
  }
  // Midpoint circle; every plotted block lies inside the circle's bounding
  // box grown by the pen's half-width.
  const int64_t half = style.thickness > 1 ? style.thickness / 2 : 0;
  const int64_t reach = static_cast<int64_t>(ir) + half;
  if (icx + reach < box_.x0 || icx - reach > box_.x1 || icy + reach < box_.y0 ||
      icy - reach > box_.y1 || box_.empty()) {
    return;
  }
  int x = ir;
  int y = 0;
  int err = 1 - ir;
  while (x >= y) {
    const int px[8] = {icx + x, icx - x, icx + x, icx - x,
                       icx + y, icx - y, icx + y, icx - y};
    const int py[8] = {icy + y, icy + y, icy - y, icy - y,
                       icy + x, icy + x, icy - x, icy - x};
    for (int i = 0; i < 8; ++i) PlotDevice(px[i], py[i], style.thickness, color);
    ++y;
    if (err < 0) {
      err += 2 * y + 1;
    } else {
      --x;
      err += 2 * (y - x) + 1;
    }
  }
}

void RasterSurface::DrawPolygon(const std::vector<draw::Point>& points,
                                const draw::Style& style, const draw::Color& color) {
  if (points.size() < 2) return;
  if (style.fill == draw::FillMode::kFilled && points.size() >= 3) {
    // Transform vertices once, then even-odd scanline fill over the rows of
    // the writable box, each span cut to the box.
    std::vector<draw::Point> device;
    device.reserve(points.size());
    double min_y = 1e300;
    double max_y = -1e300;
    for (const draw::Point& p : points) {
      double x = p.x;
      double y = p.y;
      transform_.Apply(&x, &y);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
      device.push_back(draw::Point{x, y});
    }
    int iy0 = box_.y0;
    int iy1 = box_.y1;
    NarrowRange(min_y, max_y, &iy0, &iy1);
    std::vector<double> crossings;
    for (int py = iy0; py <= iy1; ++py) {
      double scan = py + 0.5;
      crossings.clear();
      for (size_t i = 0; i < device.size(); ++i) {
        const draw::Point& a = device[i];
        const draw::Point& b = device[(i + 1) % device.size()];
        if ((a.y <= scan && b.y > scan) || (b.y <= scan && a.y > scan)) {
          double t = (scan - a.y) / (b.y - a.y);
          crossings.push_back(a.x + t * (b.x - a.x));
        }
      }
      std::sort(crossings.begin(), crossings.end());
      for (size_t i = 0; i + 1 < crossings.size(); i += 2) {
        int px0 = box_.x0;
        int px1 = box_.x1;
        NarrowRange(crossings[i], crossings[i + 1], &px0, &px1);
        fb_->FillSpan(py, px0, px1, color);
      }
    }
    return;
  }
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    DrawLine(points[i].x, points[i].y, points[i + 1].x, points[i + 1].y, style, color);
  }
  if (points.size() >= 3) {
    DrawLine(points.back().x, points.back().y, points[0].x, points[0].y, style, color);
  }
}

void RasterSurface::DrawText(const std::string& text, double x, double y, double height,
                             const draw::Color& color) {
  transform_.Apply(&x, &y);
  double h = transform_.ApplyLength(height);
  // Integral per-pixel scale keeps glyphs crisp; at least 1.
  const int64_t scale = std::max(1, DeviceInt(h / kGlyphHeight));
  const int64_t origin_x = DeviceInt(x);
  // (x, y) anchors the glyph box's bottom-left; rows render upward from it.
  const int64_t origin_y = DeviceInt(y) - kGlyphHeight * scale + scale;
  if (origin_y > box_.y1 || origin_y + kGlyphHeight * scale <= box_.y0) return;
  for (size_t i = 0; i < text.size(); ++i) {
    const int64_t gx = origin_x + static_cast<int64_t>(i) * kGlyphAdvance * scale;
    if (gx > box_.x1) break;  // this and every later glyph start right of the box
    if (gx + kGlyphWidth * scale <= box_.x0) continue;
    const std::array<uint8_t, 7>& glyph = GlyphFor(text[i]);
    for (int row = 0; row < kGlyphHeight; ++row) {
      uint8_t bits = glyph[static_cast<size_t>(row)];
      const int64_t cy = origin_y + row * scale;
      for (int col = 0; col < kGlyphWidth; ++col) {
        if ((bits & (1 << (4 - col))) == 0) continue;
        const int64_t cx = gx + col * scale;
        FillBlock(cx, cy, cx + scale - 1, cy + scale - 1, color);
      }
    }
  }
}

}  // namespace tioga2::render
