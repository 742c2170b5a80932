#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "render/font.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "render/svg_surface.h"

namespace tioga2::render {
namespace {

using draw::Color;
using draw::FillMode;
using draw::kBlack;
using draw::kRed;
using draw::kWhite;
using draw::Style;

TEST(FramebufferTest, ClearAndPixelAccess) {
  Framebuffer fb(4, 3, kWhite);
  EXPECT_EQ(fb.width(), 4);
  EXPECT_EQ(fb.height(), 3);
  EXPECT_EQ(fb.CountPixels(kWhite), 12u);
  fb.Set(1, 2, kRed);
  EXPECT_EQ(fb.Get(1, 2), kRed);
  EXPECT_EQ(fb.CountPixels(kRed), 1u);
  EXPECT_EQ(fb.CountPixelsNotEqual(kWhite), 1u);
  // Out-of-bounds accesses are safe.
  fb.Set(-1, 0, kRed);
  fb.Set(4, 0, kRed);
  EXPECT_EQ(fb.Get(-1, 0), kBlack);
  EXPECT_EQ(fb.CountPixels(kRed), 1u);
  fb.Clear(kBlack);
  EXPECT_EQ(fb.CountPixels(kBlack), 12u);
}

TEST(FramebufferTest, PpmEncoding) {
  Framebuffer fb(2, 1, kWhite);
  fb.Set(0, 0, Color{1, 2, 3});
  std::string ppm = fb.ToPpm();
  EXPECT_EQ(ppm.substr(0, 11), "P6\n2 1\n255\n");
  EXPECT_EQ(static_cast<unsigned char>(ppm[11]), 1);
  EXPECT_EQ(static_cast<unsigned char>(ppm[12]), 2);
  EXPECT_EQ(static_cast<unsigned char>(ppm[13]), 3);
  EXPECT_EQ(ppm.size(), 11u + 6u);
}

TEST(FramebufferTest, WritePpmFile) {
  Framebuffer fb(2, 2);
  std::string path = ::testing::TempDir() + "/tioga2_fb_test.ppm";
  ASSERT_TRUE(fb.WritePpm(path).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(fb.WritePpm("/nonexistent_dir_zz/x.ppm").IsIOError());
}

TEST(FontTest, GlyphCoverage) {
  // Every printable ASCII character has a real glyph.
  for (char c = ' '; c <= '~'; ++c) {
    EXPECT_TRUE(HasGlyph(c)) << "missing glyph for '" << c << "'";
  }
  EXPECT_FALSE(HasGlyph('\t'));
  EXPECT_FALSE(HasGlyph(static_cast<char>(200)));
}

TEST(FontTest, SpaceIsEmptyAndLettersAreNot) {
  const auto& space = GlyphFor(' ');
  for (uint8_t row : space) EXPECT_EQ(row, 0);
  const auto& letter = GlyphFor('A');
  int on = 0;
  for (uint8_t row : letter) {
    for (int bit = 0; bit < 5; ++bit) on += (row >> bit) & 1;
  }
  EXPECT_GT(on, 8);
}

TEST(FontTest, FallbackBoxForUnknown) {
  const auto& fallback = GlyphFor('\t');
  EXPECT_EQ(fallback[0], 0x1F);
  EXPECT_EQ(fallback[6], 0x1F);
}

class RasterTest : public ::testing::Test {
 protected:
  RasterTest() : fb_(100, 100, kWhite), surface_(&fb_) {}
  Framebuffer fb_;
  RasterSurface surface_;
};

TEST_F(RasterTest, PointAndThickness) {
  surface_.DrawPoint(50, 50, 1, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 1u);
  surface_.DrawPoint(20, 20, 3, kRed);
  EXPECT_EQ(fb_.CountPixels(kRed), 9u);  // 3x3 block
}

TEST_F(RasterTest, HorizontalAndDiagonalLines) {
  Style style;
  surface_.DrawLine(10, 50, 20, 50, style, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 11u);  // inclusive endpoints
  fb_.Clear(kWhite);
  surface_.DrawLine(0, 0, 9, 9, style, kBlack);
  EXPECT_EQ(fb_.CountPixels(kBlack), 10u);  // perfect diagonal
  EXPECT_EQ(fb_.Get(5, 5), kBlack);
}

TEST_F(RasterTest, DashedLineHasGaps) {
  Style solid;
  Style dashed;
  dashed.line = draw::LineStyle::kDashed;
  surface_.DrawLine(0, 10, 99, 10, solid, kBlack);
  size_t solid_count = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawLine(0, 10, 99, 10, dashed, kBlack);
  size_t dashed_count = fb_.CountPixels(kBlack);
  EXPECT_LT(dashed_count, solid_count);
  EXPECT_GT(dashed_count, solid_count / 3);
}

TEST_F(RasterTest, RectOutlineVsFilled) {
  Style outline;
  surface_.DrawRect(10, 10, 20, 10, outline, kBlack);
  size_t outline_pixels = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawRect(10, 10, 20, 10, filled, kBlack);
  size_t filled_pixels = fb_.CountPixels(kBlack);
  EXPECT_EQ(filled_pixels, 21u * 11u);
  EXPECT_LT(outline_pixels, filled_pixels);
  // Interior untouched by outline.
  fb_.Clear(kWhite);
  surface_.DrawRect(10, 10, 20, 10, outline, kBlack);
  EXPECT_EQ(fb_.Get(20, 15), kWhite);
  EXPECT_EQ(fb_.Get(10, 10), kBlack);
}

TEST_F(RasterTest, CircleFilledAreaApproximatesPiR2) {
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawCircle(50, 50, 20, filled, kBlack);
  double area = static_cast<double>(fb_.CountPixels(kBlack));
  EXPECT_NEAR(area, M_PI * 20 * 20, 90);
  EXPECT_EQ(fb_.Get(50, 50), kBlack);
  EXPECT_EQ(fb_.Get(50, 29), kWhite);  // just outside
}

TEST_F(RasterTest, CircleOutlineLeavesInteriorEmpty) {
  Style outline;
  surface_.DrawCircle(50, 50, 20, outline, kBlack);
  EXPECT_EQ(fb_.Get(50, 50), kWhite);
  EXPECT_EQ(fb_.Get(70, 50), kBlack);
  EXPECT_EQ(fb_.Get(30, 50), kBlack);
  EXPECT_EQ(fb_.Get(50, 70), kBlack);
}

TEST_F(RasterTest, ZeroRadiusCircleIsPoint) {
  Style style;
  surface_.DrawCircle(10, 10, 0.2, style, kBlack);
  EXPECT_GE(fb_.CountPixels(kBlack), 1u);
}

TEST_F(RasterTest, FilledTriangleCoversHalfSquare) {
  Style filled;
  filled.fill = FillMode::kFilled;
  surface_.DrawPolygon({{10, 10}, {50, 10}, {10, 50}}, filled, kBlack);
  double area = static_cast<double>(fb_.CountPixels(kBlack));
  EXPECT_NEAR(area, 40 * 40 / 2.0, 60);
}

TEST_F(RasterTest, PolygonOutlineClosesShape) {
  Style outline;
  surface_.DrawPolygon({{10, 10}, {30, 10}, {30, 30}}, outline, kBlack);
  // The closing edge from (30,30) back to (10,10) must be drawn.
  EXPECT_EQ(fb_.Get(20, 20), kBlack);
}

TEST_F(RasterTest, TextRendersInkProportionalToLength) {
  surface_.DrawText("III", 10, 50, 7, kBlack);
  size_t narrow = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawText("WWWWWW", 10, 50, 7, kBlack);
  size_t wide = fb_.CountPixels(kBlack);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, narrow);
}

TEST_F(RasterTest, TextScalesWithHeight) {
  surface_.DrawText("A", 10, 90, 7, kBlack);
  size_t small = fb_.CountPixels(kBlack);
  fb_.Clear(kWhite);
  surface_.DrawText("A", 10, 90, 21, kBlack);
  size_t big = fb_.CountPixels(kBlack);
  EXPECT_NEAR(static_cast<double>(big) / small, 9.0, 1.0);  // 3x scale = 9x ink
}

TEST_F(RasterTest, ViewportTransformsAndClips) {
  // A nested viewport mapping a 100x100 source into a 20x20 target at (40, 40).
  surface_.PushViewport(DeviceRect{40, 40, 20, 20}, 100, 100);
  Style filled;
  filled.fill = FillMode::kFilled;
  // Fills the whole source space; must land inside the 20x20 target only.
  surface_.DrawRect(0, 0, 99, 99, filled, kBlack);
  surface_.PopViewport();
  size_t black = fb_.CountPixels(kBlack);
  EXPECT_NEAR(static_cast<double>(black), 21 * 21, 60);
  EXPECT_EQ(fb_.Get(50, 50), kBlack);
  EXPECT_EQ(fb_.Get(30, 30), kWhite);
  EXPECT_EQ(fb_.Get(70, 70), kWhite);
}

TEST_F(RasterTest, NestedViewportsCompose) {
  surface_.PushViewport(DeviceRect{0, 0, 50, 50}, 100, 100);  // scale 0.5
  surface_.PushViewport(DeviceRect{0, 0, 50, 50}, 100, 100);  // total 0.25
  surface_.DrawPoint(100, 100, 1, kBlack);                    // -> (25, 25)
  surface_.PopViewport();
  surface_.PopViewport();
  EXPECT_EQ(fb_.Get(25, 25), kBlack);
}

// ---- Clip-aware spans against a per-pixel reference ----
//
// RasterSurface fills only the part of each primitive inside the writable
// pixel box (framebuffer bounds intersected with the clip). The reference
// below is the per-pixel formulation: every pixel of the primitive is tested
// against TransformStack::Clipped and written through the bounds-checked
// Framebuffer::Set. Both must produce identical framebuffers.

/// Per-pixel reference rasterizer over its own TransformStack, which the test
/// pushes in step with the surface under test.
class ReferenceRaster {
 public:
  explicit ReferenceRaster(Framebuffer* fb) : fb_(fb) {}

  TransformStack& transform() { return transform_; }

  void Plot(int x, int y, int thickness, const Color& color) {
    int half = thickness <= 1 ? 0 : thickness / 2;
    for (int dy = -half; dy <= half; ++dy) {
      for (int dx = -half; dx <= half; ++dx) Pixel(x + dx, y + dy, color);
    }
  }

  void Point(double x, double y, int thickness, const Color& color) {
    transform_.Apply(&x, &y);
    Plot(Round(x), Round(y), std::max(1, thickness), color);
  }

  void Line(double x1, double y1, double x2, double y2, const Style& style,
            const Color& color) {
    transform_.Apply(&x1, &y1);
    transform_.Apply(&x2, &y2);
    int ix1 = Round(x1), iy1 = Round(y1), ix2 = Round(x2), iy2 = Round(y2);
    int dx = std::abs(ix2 - ix1), dy = -std::abs(iy2 - iy1);
    int sx = ix1 < ix2 ? 1 : -1, sy = iy1 < iy2 ? 1 : -1;
    int err = dx + dy, x = ix1, y = iy1;
    for (int step = 0;; ++step) {
      bool on = style.line == draw::LineStyle::kSolid ||
                (style.line == draw::LineStyle::kDashed && (step / 4) % 2 == 0) ||
                (style.line == draw::LineStyle::kDotted && step % 3 == 0);
      if (on) Plot(x, y, style.thickness, color);
      if (x == ix2 && y == iy2) break;
      int e2 = 2 * err;
      if (e2 >= dy) err += dy, x += sx;
      if (e2 <= dx) err += dx, y += sy;
    }
  }

  void FilledRect(double x, double y, double w, double h, const Color& color) {
    double x0 = x, y0 = y, x1 = x + w, y1 = y + h;
    transform_.Apply(&x0, &y0);
    transform_.Apply(&x1, &y1);
    if (x1 < x0) std::swap(x0, x1);
    if (y1 < y0) std::swap(y0, y1);
    for (int py = Round(y0); py <= Round(y1); ++py) {
      for (int px = Round(x0); px <= Round(x1); ++px) Pixel(px, py, color);
    }
  }

  void Circle(double cx, double cy, double radius, const Style& style, const Color& color) {
    transform_.Apply(&cx, &cy);
    int icx = Round(cx), icy = Round(cy);
    int ir = Round(std::fabs(transform_.ApplyLength(radius)));
    if (ir == 0) return Plot(icx, icy, style.thickness, color);
    if (style.fill == FillMode::kFilled) {
      for (int dy = -ir; dy <= ir; ++dy) {
        int span = static_cast<int>(std::floor(std::sqrt(
            static_cast<double>(ir) * ir - static_cast<double>(dy) * dy)));
        for (int dx = -span; dx <= span; ++dx) Pixel(icx + dx, icy + dy, color);
      }
      return;
    }
    for (int x = ir, y = 0, err = 1 - ir; x >= y;) {
      const int px[8] = {icx + x, icx - x, icx + x, icx - x, icx + y, icx - y, icx + y, icx - y};
      const int py[8] = {icy + y, icy + y, icy - y, icy - y, icy + x, icy + x, icy - x, icy - x};
      for (int i = 0; i < 8; ++i) Plot(px[i], py[i], style.thickness, color);
      ++y;
      if (err < 0) {
        err += 2 * y + 1;
      } else {
        --x;
        err += 2 * (y - x) + 1;
      }
    }
  }

  void FilledPolygon(std::vector<draw::Point> points, const Color& color) {
    double min_y = 1e300, max_y = -1e300;
    for (draw::Point& p : points) {
      transform_.Apply(&p.x, &p.y);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    for (int py = static_cast<int>(std::ceil(min_y)); py <= static_cast<int>(std::floor(max_y));
         ++py) {
      double scan = py + 0.5;
      std::vector<double> crossings;
      for (size_t i = 0; i < points.size(); ++i) {
        const draw::Point& a = points[i];
        const draw::Point& b = points[(i + 1) % points.size()];
        if ((a.y <= scan && b.y > scan) || (b.y <= scan && a.y > scan)) {
          crossings.push_back(a.x + (scan - a.y) / (b.y - a.y) * (b.x - a.x));
        }
      }
      std::sort(crossings.begin(), crossings.end());
      for (size_t i = 0; i + 1 < crossings.size(); i += 2) {
        for (int px = static_cast<int>(std::ceil(crossings[i]));
             px <= static_cast<int>(std::floor(crossings[i + 1])); ++px) {
          Pixel(px, py, color);
        }
      }
    }
  }

  void Text(const std::string& text, double x, double y, double height, const Color& color) {
    transform_.Apply(&x, &y);
    int scale = std::max(1, Round(transform_.ApplyLength(height) / kGlyphHeight));
    int origin_x = Round(x);
    int origin_y = Round(y) - kGlyphHeight * scale + scale;
    for (size_t i = 0; i < text.size(); ++i) {
      const std::array<uint8_t, 7>& glyph = GlyphFor(text[i]);
      int gx = origin_x + static_cast<int>(i) * kGlyphAdvance * scale;
      for (int row = 0; row < kGlyphHeight; ++row) {
        for (int col = 0; col < kGlyphWidth; ++col) {
          if ((glyph[static_cast<size_t>(row)] & (1 << (4 - col))) == 0) continue;
          for (int sy = 0; sy < scale; ++sy) {
            for (int sx = 0; sx < scale; ++sx) {
              Pixel(gx + col * scale + sx, origin_y + row * scale + sy, color);
            }
          }
        }
      }
    }
  }

 private:
  static int Round(double v) { return static_cast<int>(std::lround(v)); }

  void Pixel(int x, int y, const Color& color) {
    if (!transform_.Clipped(x, y)) fb_->Set(x, y, color);
  }

  Framebuffer* fb_;
  TransformStack transform_;
};

/// One primitive drawn both ways.
struct Primitive {
  std::string name;
  std::function<void(RasterSurface*)> draw;
  std::function<void(ReferenceRaster*)> reference;
};

/// Primitives straddling every edge of a 64x48 framebuffer (and of the
/// clips below), in the current frame's coordinates.
std::vector<Primitive> EdgePrimitives() {
  std::vector<Primitive> out;
  Style filled;
  filled.fill = FillMode::kFilled;
  Style outline;
  Style thick;
  thick.thickness = 3;
  Style dashed;
  dashed.line = draw::LineStyle::kDashed;
  dashed.thickness = 2;
  const Color ink{20, 120, 220};
  const std::vector<std::pair<double, double>> anchors = {
      {-3.4, 20.2}, {62.6, 21.5}, {30.3, -2.6}, {31.5, 46.7}, {-1.5, -1.5},
      {63.5, 47.5}, {10.5, 99.5}, {-12.25, 30.75}, {31.0, 23.0}};
  for (auto [x, y] : anchors) {
    const std::string at = "(" + std::to_string(x) + "," + std::to_string(y) + ")";
    out.push_back({"rect" + at,
                   [=](RasterSurface* s) { s->DrawRect(x, y, 9.6, -7.3, filled, ink); },
                   [=](ReferenceRaster* r) { r->FilledRect(x, y, 9.6, -7.3, ink); }});
    for (double radius : {0.3, 4.6, 13.2}) {
      out.push_back({"disc" + at,
                     [=](RasterSurface* s) { s->DrawCircle(x, y, radius, filled, ink); },
                     [=](ReferenceRaster* r) { r->Circle(x, y, radius, filled, ink); }});
      out.push_back({"ring" + at,
                     [=](RasterSurface* s) { s->DrawCircle(x, y, radius, thick, ink); },
                     [=](ReferenceRaster* r) { r->Circle(x, y, radius, thick, ink); }});
    }
    std::vector<draw::Point> poly = {
        {x - 6, y - 5}, {x + 9, y - 2}, {x + 1, y}, {x + 7, y + 8}, {x - 4, y + 6}};
    out.push_back({"polygon" + at,
                   [=](RasterSurface* s) { s->DrawPolygon(poly, filled, ink); },
                   [=](ReferenceRaster* r) { r->FilledPolygon(poly, ink); }});
    for (double height : {7.0, 40.0 * 7.0}) {
      out.push_back({"text" + at,
                     [=](RasterSurface* s) { s->DrawText("Ag|#", x, y, height, ink); },
                     [=](ReferenceRaster* r) { r->Text("Ag|#", x, y, height, ink); }});
    }
    for (int thickness : {1, 2, 3, 6}) {
      out.push_back({"point" + at,
                     [=](RasterSurface* s) { s->DrawPoint(x, y, thickness, ink); },
                     [=](ReferenceRaster* r) { r->Point(x, y, thickness, ink); }});
    }
    out.push_back({"line" + at,
                   [=](RasterSurface* s) { s->DrawLine(x, y, 70 - x, 50 - y, dashed, ink); },
                   [=](ReferenceRaster* r) { r->Line(x, y, 70 - x, 50 - y, dashed, ink); }});
  }
  return out;
}

/// A clip configuration applied to both the surface and the reference.
struct ClipSetup {
  std::string name;
  std::function<void(Surface*)> push;
  std::function<void(TransformStack*)> push_reference;
  int depth = 0;
};

TEST(RasterClipTest, SpansMatchPerPixelReference) {
  std::vector<ClipSetup> setups;
  setups.push_back({"framebuffer only", [](Surface*) {}, [](TransformStack*) {}, 0});
  setups.push_back({"clip 10.5/99.5",
                    [](Surface* s) { s->PushClip(DeviceRect{10.5, 5.25, 99.5, 99.5}); },
                    [](TransformStack* t) { t->PushClip(DeviceRect{10.5, 5.25, 99.5, 99.5}); },
                    1});
  setups.push_back(
      {"viewport + clip, negative",
       [](Surface* s) {
         s->PushViewport(DeviceRect{-10.5, -6.5, 70.25, 50.75}, 60, 40);
         s->PushClip(DeviceRect{-3.5, 2.5, 50.5, 40.25});
       },
       [](TransformStack* t) {
         t->Push(DeviceRect{-10.5, -6.5, 70.25, 50.75}, 60, 40);
         t->PushClip(DeviceRect{-3.5, 2.5, 50.5, 40.25});
       },
       2});
  setups.push_back(
      {"nested viewports + clip",
       [](Surface* s) {
         s->PushViewport(DeviceRect{4.5, 3.5, 50, 36}, 64, 48);
         s->PushViewport(DeviceRect{10.5, -8.5, 99.5, 99.5}, 120, 90);
         s->PushClip(DeviceRect{-20.5, 10.5, 99.5, 60.5});
       },
       [](TransformStack* t) {
         t->Push(DeviceRect{4.5, 3.5, 50, 36}, 64, 48);
         t->Push(DeviceRect{10.5, -8.5, 99.5, 99.5}, 120, 90);
         t->PushClip(DeviceRect{-20.5, 10.5, 99.5, 60.5});
       },
       3});
  setups.push_back({"clip off screen",
                    [](Surface* s) { s->PushClip(DeviceRect{70.5, -30, 10, 10}); },
                    [](TransformStack* t) { t->PushClip(DeviceRect{70.5, -30, 10, 10}); }, 1});

  for (const ClipSetup& setup : setups) {
    SCOPED_TRACE(setup.name);
    for (const Primitive& primitive : EdgePrimitives()) {
      Framebuffer actual(64, 48, kWhite);
      Framebuffer expected(64, 48, kWhite);
      RasterSurface surface(&actual);
      ReferenceRaster reference(&expected);
      setup.push(&surface);
      setup.push_reference(&reference.transform());
      primitive.draw(&surface);
      primitive.reference(&reference);
      for (int i = 0; i < setup.depth; ++i) surface.PopViewport();
      ASSERT_TRUE(actual.ToPpm() == expected.ToPpm()) << primitive.name;
    }
  }
}

TEST(SvgTest, DocumentStructure) {
  SvgSurface svg(320, 240);
  svg.Clear(kWhite);
  Style style;
  svg.DrawCircle(10, 10, 5, style, kRed);
  svg.DrawText("hi <&>", 5, 20, 12, kBlack);
  svg.DrawLine(0, 0, 10, 10, style, kBlack);
  svg.DrawRect(1, 2, 3, 4, style, kBlack);
  svg.DrawPolygon({{0, 0}, {1, 0}, {0, 1}}, style, kBlack);
  svg.DrawPoint(7, 7, 2, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("width=\"320\""), std::string::npos);
  EXPECT_NE(doc.find("<circle"), std::string::npos);
  EXPECT_NE(doc.find("hi &lt;&amp;&gt;"), std::string::npos);
  EXPECT_NE(doc.find("<polygon"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("#c81e1e"), std::string::npos);  // kRed
}

TEST(SvgTest, FilledVsOutlineStyle) {
  SvgSurface svg(100, 100);
  Style filled;
  filled.fill = FillMode::kFilled;
  svg.DrawRect(0, 0, 10, 10, filled, kRed);
  Style outline;
  outline.thickness = 2;
  svg.DrawRect(0, 0, 10, 10, outline, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("fill=\"#c81e1e\" stroke=\"none\""), std::string::npos);
  EXPECT_NE(doc.find("fill=\"none\" stroke=\"#000000\" stroke-width=\"2\""),
            std::string::npos);
}

TEST(SvgTest, DashedStrokeAttribute) {
  SvgSurface svg(100, 100);
  Style dashed;
  dashed.line = draw::LineStyle::kDashed;
  svg.DrawLine(0, 0, 10, 10, dashed, kBlack);
  EXPECT_NE(svg.ToSvg().find("stroke-dasharray"), std::string::npos);
}

TEST(SvgTest, ViewportNestingBalanced) {
  SvgSurface svg(100, 100);
  svg.PushViewport(DeviceRect{10, 10, 50, 50}, 100, 100);
  svg.DrawPoint(1, 1, 1, kBlack);
  std::string open = svg.ToSvg();  // viewport still open -> auto-closed
  EXPECT_NE(open.find("<g clip-path"), std::string::npos);
  EXPECT_NE(open.find("</g>"), std::string::npos);
  svg.PopViewport();
  std::string closed = svg.ToSvg();
  EXPECT_NE(closed.find("</g>"), std::string::npos);
}

TEST(SvgTest, NegativeRectNormalized) {
  SvgSurface svg(100, 100);
  Style style;
  svg.DrawRect(10, 10, -5, -6, style, kBlack);
  std::string doc = svg.ToSvg();
  EXPECT_NE(doc.find("x=\"5\""), std::string::npos);
  EXPECT_NE(doc.find("width=\"5\""), std::string::npos);
  EXPECT_NE(doc.find("height=\"6\""), std::string::npos);
}

}  // namespace
}  // namespace tioga2::render
