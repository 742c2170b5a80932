// Tests for composite rendering: drawing order, elevation ranges (§6.1),
// slider culling, wormhole rendering (§6.2), undersides (§6.3), hit testing,
// and the batch-at-a-time render loop against the per-row loop.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "db/relation.h"
#include "expr/batch.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "viewer/canvas_renderer.h"

namespace tioga2::viewer {
namespace {

using db::Column;
using db::MakeRelation;
using display::Composite;
using display::DisplayRelation;
using types::DataType;
using types::Value;

/// One tuple at (x, y) displayed as a filled circle of the given color.
DisplayRelation Dot(const std::string& name, double x, double y, double radius,
                    const std::string& color) {
  auto base = MakeRelation({Column{"px", DataType::kFloat}, Column{"py", DataType::kFloat}},
                           {{Value::Float(x), Value::Float(y)}})
                  .value();
  return DisplayRelation::WithDefaults(name, base)
      .value()
      .SetLocationAttribute(0, "px")
      .value()
      .SetLocationAttribute(1, "py")
      .value()
      .AddAttribute("dot", "circle(" + std::to_string(radius) + ", \"" + color +
                               "\", true)")
      .value()
      .SetDisplayAttribute("dot")
      .value();
}

class CanvasRendererTest : public ::testing::Test {
 protected:
  CanvasRendererTest() : fb_(100, 100, draw::kWhite), surface_(&fb_) {}

  Camera DefaultCamera() { return Camera(0, 0, 20, 100, 100); }

  render::Framebuffer fb_;
  render::RasterSurface surface_;
};

TEST_F(CanvasRendererTest, DrawsTupleAtProjectedLocation) {
  Composite composite(Dot("a", 0, 0, 2, "#ff0000"));
  auto stats = RenderComposite(composite, DefaultCamera(), &surface_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->tuples_drawn, 1u);
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{255, 0, 0}));
}

TEST_F(CanvasRendererTest, DrawingOrderLaterOnTop) {
  Composite composite(Dot("below", 0, 0, 3, "#ff0000"));
  composite = composite.Overlay(Composite(Dot("above", 0, 0, 3, "#0000ff")), {});
  ASSERT_TRUE(RenderComposite(composite, DefaultCamera(), &surface_).ok());
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{0, 0, 255}));
  // Shuffle the red dot to the top and re-render.
  Composite shuffled = composite.Shuffle(0).value();
  fb_.Clear(draw::kWhite);
  ASSERT_TRUE(RenderComposite(shuffled, DefaultCamera(), &surface_).ok());
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{255, 0, 0}));
}

TEST_F(CanvasRendererTest, ElevationRangeSkipsRelation) {
  DisplayRelation labels = Dot("labels", 0, 0, 2, "#00ff00").SetElevationRange(0, 10);
  Composite composite(labels);
  Camera low = DefaultCamera();
  low.SetElevation(5);
  auto visible = RenderComposite(composite, low, &surface_).value();
  EXPECT_EQ(visible.tuples_drawn, 1u);
  EXPECT_EQ(visible.relations_skipped, 0u);

  Camera high = DefaultCamera();
  high.SetElevation(50);
  fb_.Clear(draw::kWhite);
  auto hidden = RenderComposite(composite, high, &surface_).value();
  EXPECT_EQ(hidden.tuples_drawn, 0u);
  EXPECT_EQ(hidden.relations_skipped, 1u);
  EXPECT_EQ(fb_.CountPixelsNotEqual(draw::kWhite), 0u);
}

TEST_F(CanvasRendererTest, ViewportCulling) {
  Composite composite(Dot("far", 1000, 1000, 2, "#ff0000"));
  auto stats = RenderComposite(composite, DefaultCamera(), &surface_).value();
  EXPECT_EQ(stats.tuples_drawn, 0u);
  EXPECT_EQ(stats.tuples_culled_viewport, 1u);
}

TEST_F(CanvasRendererTest, SliderCulling) {
  DisplayRelation rel = Dot("d", 0, 0, 2, "#ff0000")
                            .AddAttribute("alt", "500.0")
                            .value()
                            .AddLocationDimension("alt")
                            .value();
  Composite composite(rel);
  Camera camera = DefaultCamera();
  camera.SetSlider(2, SliderRange{0, 100});
  auto stats = RenderComposite(composite, camera, &surface_).value();
  EXPECT_EQ(stats.tuples_culled_slider, 1u);
  camera.SetSlider(2, SliderRange{0, 1000});
  auto visible = RenderComposite(composite, camera, &surface_).value();
  EXPECT_EQ(visible.tuples_drawn, 1u);
}

TEST_F(CanvasRendererTest, LowerDimensionalMemberInvariantUnderSliders) {
  // A 2-D map member ignores the slider of a 3-D composite (§6.1).
  DisplayRelation map_member = Dot("map", 0, 0, 2, "#00ff00");
  DisplayRelation stations = Dot("stations", 5, 5, 1, "#ff0000")
                                 .AddAttribute("alt", "500.0")
                                 .value()
                                 .AddLocationDimension("alt")
                                 .value();
  Composite composite(map_member);
  composite = composite.Overlay(Composite(stations), {});
  Camera camera = DefaultCamera();
  camera.SetSlider(2, SliderRange{0, 100});  // excludes the station
  auto stats = RenderComposite(composite, camera, &surface_).value();
  EXPECT_EQ(stats.tuples_drawn, 1u);          // the map survives
  EXPECT_EQ(stats.tuples_culled_slider, 1u);  // the station is culled
}

TEST_F(CanvasRendererTest, CompositeOffsetShiftsMember) {
  Composite composite(Dot("a", 0, 0, 2, "#ff0000"));
  composite = composite.Overlay(Composite(Dot("b", 0, 0, 2, "#0000ff")), {5, 0});
  ASSERT_TRUE(RenderComposite(composite, DefaultCamera(), &surface_).ok());
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{255, 0, 0}));  // a at center
  EXPECT_EQ(fb_.Get(75, 50), (draw::Color{0, 0, 255}));  // b shifted +5 world = +25 px
}

TEST_F(CanvasRendererTest, TupleErrorsCountedNotFatal) {
  auto base = MakeRelation({Column{"px", DataType::kFloat}},
                           {{Value::Float(0)}, {Value::Null()}})
                  .value();
  DisplayRelation rel = DisplayRelation::WithDefaults("mixed", base)
                            .value()
                            .SetLocationAttribute(0, "px")
                            .value();
  auto stats = RenderComposite(Composite(rel), DefaultCamera(), &surface_).value();
  EXPECT_EQ(stats.tuple_errors, 1u);
  EXPECT_EQ(stats.tuples_drawn + stats.tuples_culled_viewport, 1u);
}

TEST_F(CanvasRendererTest, UndersideShowsOnlyNegativeRanges) {
  DisplayRelation top = Dot("top", 0, 0, 2, "#ff0000").SetElevationRange(0, 100);
  DisplayRelation under = Dot("under", 0, 0, 2, "#0000ff").SetElevationRange(-100, -1);
  Composite composite(top);
  composite = composite.Overlay(Composite(under), {});

  RenderOptions underside;
  underside.underside = true;
  auto stats = RenderComposite(composite, DefaultCamera(), &surface_, underside).value();
  EXPECT_EQ(stats.tuples_drawn, 1u);
  EXPECT_EQ(stats.relations_skipped, 1u);
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{0, 0, 255}));

  // Top side shows the red one.
  fb_.Clear(draw::kWhite);
  auto top_stats = RenderComposite(composite, DefaultCamera(), &surface_).value();
  EXPECT_EQ(top_stats.relations_skipped, 1u);
  EXPECT_EQ(fb_.Get(50, 50), (draw::Color{255, 0, 0}));
}

TEST_F(CanvasRendererTest, UndersideMirrorsHorizontally) {
  DisplayRelation under = Dot("under", 5, 0, 2, "#0000ff").SetElevationRange(-100, 0);
  RenderOptions underside;
  underside.underside = true;
  ASSERT_TRUE(
      RenderComposite(Composite(under), DefaultCamera(), &surface_, underside).ok());
  // World x=+5 maps to device 75 normally; mirrored it lands at 25.
  EXPECT_EQ(fb_.Get(25, 50), (draw::Color{0, 0, 255}));
  EXPECT_EQ(fb_.Get(75, 50), draw::kWhite);
}

TEST_F(CanvasRendererTest, WormholeRendersNestedCanvas) {
  // Destination canvas: a big green dot.
  CanvasRegistry registry;
  registry.Register("dest", []() -> Result<display::Displayable> {
    return display::Displayable(Dot("green", 0, 0, 3, "#00ff00"));
  });
  // Source: one tuple displaying a viewer drawable of 10x10 world units.
  auto base = MakeRelation({Column{"px", DataType::kFloat}}, {{Value::Float(0)}}).value();
  DisplayRelation rel =
      DisplayRelation::WithDefaults("src", base)
          .value()
          .SetLocationAttribute(0, "px")
          .value()
          .AddAttribute("hole", "viewer(10, 10, \"dest\", 0, 0, 10)")
          .value()
          .SetDisplayAttribute("hole")
          .value();
  RenderOptions options;
  options.registry = &registry;
  options.wormhole_depth = 1;
  auto stats = RenderComposite(Composite(rel), DefaultCamera(), &surface_, options)
                   .value();
  EXPECT_EQ(stats.wormholes_rendered, 1u);
  // The nested green dot must appear inside the wormhole rectangle
  // (world (0,0)..(10,10) -> device (50,0)..(100,50)).
  size_t green = fb_.CountPixels(draw::Color{0, 255, 0});
  EXPECT_GT(green, 10u);

  // With depth 0 the wormhole draws as an empty frame.
  fb_.Clear(draw::kWhite);
  options.wormhole_depth = 0;
  auto shallow = RenderComposite(Composite(rel), DefaultCamera(), &surface_, options)
                     .value();
  EXPECT_EQ(shallow.wormholes_rendered, 0u);
  EXPECT_EQ(fb_.CountPixels(draw::Color{0, 255, 0}), 0u);
}

TEST_F(CanvasRendererTest, HitTestFindsTopmostTuple) {
  Composite composite(Dot("below", 0, 0, 3, "#ff0000"));
  composite = composite.Overlay(Composite(Dot("above", 0, 0, 3, "#0000ff")), {});
  auto hit = HitTest(composite, DefaultCamera(), 50, 50).value();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation_name, "above");
  EXPECT_EQ(hit->member, 1u);
  EXPECT_EQ(hit->row, 0u);
}

TEST_F(CanvasRendererTest, HitTestMissesEmptySpace) {
  Composite composite(Dot("a", 0, 0, 1, "#ff0000"));
  auto hit = HitTest(composite, DefaultCamera(), 5, 5).value();
  EXPECT_FALSE(hit.has_value());
}

TEST_F(CanvasRendererTest, HitTestRespectsElevationRange) {
  DisplayRelation hidden = Dot("hidden", 0, 0, 3, "#ff0000").SetElevationRange(0, 1);
  auto hit = HitTest(Composite(hidden), DefaultCamera(), 50, 50).value();
  EXPECT_FALSE(hit.has_value());  // camera elevation is 20, outside [0,1]
}

TEST_F(CanvasRendererTest, FindWormholeAtLocatesSpec) {
  auto base = MakeRelation({Column{"px", DataType::kFloat}}, {{Value::Float(0)}}).value();
  DisplayRelation rel =
      DisplayRelation::WithDefaults("src", base)
          .value()
          .SetLocationAttribute(0, "px")
          .value()
          .AddAttribute("hole", "viewer(4, 4, \"temps\", 1, 2, 3)")
          .value()
          .SetDisplayAttribute("hole")
          .value();
  Composite composite(rel);
  auto found = FindWormholeAt(composite, DefaultCamera(), 2, 2).value();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->destination_canvas, "temps");
  EXPECT_DOUBLE_EQ(found->initial_x, 1);
  auto missed = FindWormholeAt(composite, DefaultCamera(), -5, -5).value();
  EXPECT_FALSE(missed.has_value());
}

// ---- The batch-at-a-time render loop against the per-row loop ----

RenderOptions PolicyOptions(bool vectorized) {
  db::ExecPolicy policy;
  policy.vectorized = vectorized;
  if (!vectorized) policy.simd = db::SimdLevel::kScalar;
  RenderOptions options;
  options.policy = policy;
  return options;
}

/// Renders `composite` under both policies onto fresh framebuffers; expects
/// identical pixels and returns {scalar, vectorized} stats.
std::pair<RenderStats, RenderStats> RenderBothPolicies(const Composite& composite,
                                                       const Camera& camera) {
  render::Framebuffer scalar_fb(100, 100, draw::kWhite);
  render::Framebuffer vector_fb(100, 100, draw::kWhite);
  render::RasterSurface scalar_surface(&scalar_fb);
  render::RasterSurface vector_surface(&vector_fb);
  Result<RenderStats> scalar =
      RenderComposite(composite, camera, &scalar_surface, PolicyOptions(false));
  Result<RenderStats> vectorized =
      RenderComposite(composite, camera, &vector_surface, PolicyOptions(true));
  EXPECT_TRUE(scalar.ok()) << scalar.status().message();
  EXPECT_TRUE(vectorized.ok()) << vectorized.status().message();
  EXPECT_TRUE(scalar_fb.ToPpm() == vector_fb.ToPpm()) << "framebuffer bytes differ";
  return {scalar.ok() ? scalar.value() : RenderStats{},
          vectorized.ok() ? vectorized.value() : RenderStats{}};
}

// Three slices of expr::kBatchSize rows with failures on both sides of each
// slice boundary:
//   - null locations (stored x at rows 0 and 4096, computed y at the last
//     row) are per-row errors the batch path records without falling back;
//   - bad display colors (rows 4095 and last - 1) fail the slice's display
//     batch, which then renders per row;
//   - slider-culled rows with bad colors (rows 100 and 5000) never evaluate
//     their display, so their slices stay batched.
TEST_F(CanvasRendererTest, SliceBoundaryErrorsMatchPerRowStats) {
  const size_t n = 2 * expr::kBatchSize + 123;
  const size_t last = n - 1;
  const std::set<size_t> null_x = {0, 4096};
  const std::set<size_t> null_y = {last};
  const std::set<size_t> bad_color = {0, 100, 4095, 5000, last - 1, last};
  const std::set<size_t> off_slider = {100, 5000};
  std::vector<db::Tuple> rows;
  for (size_t r = 0; r < n; ++r) {
    // Every 13th tuple sits far outside the view.
    double x = r % 13 == 0 ? 1e6 : static_cast<double>(r % 97) - 48;
    rows.push_back({null_x.count(r) > 0 ? Value::Null() : Value::Float(x),
                    null_y.count(r) > 0 ? Value::Null()
                                        : Value::Float(static_cast<double>(r % 89) - 44),
                    Value::Float(off_slider.count(r) > 0 ? 50.0 : 5.0),
                    Value::String(bad_color.count(r) > 0 ? "#zz" : "#1e46c8")});
  }
  auto base = MakeRelation({Column{"px", DataType::kFloat}, Column{"py", DataType::kFloat},
                            Column{"alt", DataType::kFloat},
                            Column{"color", DataType::kString}},
                           std::move(rows))
                  .value();
  DisplayRelation rel = DisplayRelation::WithDefaults("boundaries", base)
                            .value()
                            .SetLocationAttribute(0, "px")
                            .value()
                            .AddAttribute("y", "py * 0.5")
                            .value()
                            .SetLocationAttribute(1, "y")
                            .value()
                            .AddLocationDimension("alt")
                            .value()
                            .AddAttribute("dot", "circle(1.5, color, true)")
                            .value()
                            .SetDisplayAttribute("dot")
                            .value();
  Camera camera(0, 0, 60, 100, 100);
  camera.SetSlider(2, SliderRange{0, 10});

  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  const uint64_t batches_before = metrics.render_location_batches;
  const uint64_t fallbacks_before = metrics.render_scalar_fallbacks;
  auto [scalar, vectorized] = RenderBothPolicies(Composite(rel), camera);
  EXPECT_EQ(scalar, vectorized);
  EXPECT_EQ(scalar.tuples_total, n);
  // Rows 0, 4096, last (locations) and 4095, last - 1 (displays).
  EXPECT_EQ(scalar.tuple_errors, 5u);
  EXPECT_EQ(scalar.tuples_culled_slider, 2u);
  EXPECT_GT(scalar.tuples_culled_viewport, 0u);
  EXPECT_GT(scalar.tuples_drawn, 0u);
  // Slices 0 and 2 hold a display error and fall back; slice 1 stays batched.
  EXPECT_EQ(metrics.render_location_batches - batches_before, 1u);
  EXPECT_EQ(metrics.render_scalar_fallbacks - fallbacks_before, 2u);
}

// Displays without a batch form (the default text display, Combine
// Displays) are taken per row at draw time inside the slice loop.
TEST_F(CanvasRendererTest, DisplaysWithoutBatchFormMatchPerRowStats) {
  std::vector<db::Tuple> rows;
  const size_t n = expr::kBatchSize + 7;
  for (size_t r = 0; r < n; ++r) {
    rows.push_back({Value::Float(static_cast<double>(r % 50) - 25),
                    r % 11 == 0 ? Value::Null() : Value::Float(static_cast<double>(r % 40) - 20),
                    Value::String("t" + std::to_string(r))});
  }
  auto base = MakeRelation({Column{"px", DataType::kFloat}, Column{"py", DataType::kFloat},
                            Column{"label", DataType::kString}},
                           std::move(rows))
                  .value();
  DisplayRelation text = DisplayRelation::WithDefaults("text", base)
                             .value()
                             .SetLocationAttribute(0, "px")
                             .value()
                             .SetLocationAttribute(1, "py")
                             .value();
  DisplayRelation combined = text.AddAttribute("dot", "circle(0.5, \"#ff0000\", true)")
                                 .value()
                                 .CombineDisplays("both", "dot", "_display", 1, 0)
                                 .value()
                                 .SetDisplayAttribute("both")
                                 .value();
  Camera camera(0, 0, 30, 100, 100);
  for (const DisplayRelation& rel : {text, combined}) {
    SCOPED_TRACE(rel.display_name());
    auto [scalar, vectorized] = RenderBothPolicies(Composite(rel), camera);
    EXPECT_EQ(scalar, vectorized);
    EXPECT_EQ(scalar.tuple_errors, (n + 10) / 11);
    EXPECT_GT(scalar.tuples_drawn, 0u);
  }
}

}  // namespace
}  // namespace tioga2::viewer
