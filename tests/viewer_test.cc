// Tests for the Viewer: navigation, wormhole fly-through with travel
// history and rear view mirrors (§6.2, §6.3), slaving (§7.1), magnifying
// glasses (§7.2), and group member cameras (§2). The last section renders
// every figure program under the scalar and the vectorized policy and
// requires identical framebuffer bytes and RenderStats.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/relation.h"
#include "render/framebuffer.h"
#include "render/raster_surface.h"
#include "testing/fig_programs.h"
#include "tioga2/environment.h"
#include "viewer/viewer.h"

namespace tioga2::viewer {
namespace {

using db::Column;
using db::MakeRelation;
using display::Composite;
using display::DisplayRelation;
using display::Group;
using types::DataType;
using types::Value;

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

class ViewerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // "home": a red dot displaying a wormhole to "away"; the underside of
    // home carries a blue marker for the rear view mirror.
    registry_.Register("home", [this]() -> Result<display::Displayable> {
      auto base =
          MakeRelation({Column{"px", DataType::kFloat}}, {{Value::Float(0)}}).value();
      DisplayRelation wormhole_rel =
          DisplayRelation::WithDefaults("holes", base)
              .value()
              .SetLocationAttribute(0, "px")
              .value()
              .AddAttribute("w", "viewer(4, 4, \"away\", 7, 8, 5.0)")
              .value()
              .SetDisplayAttribute("w")
              .value();
      // Centered under the wormhole so the mirror (focused where the user
      // departed) can see it.
      DisplayRelation underside =
          Dot("underside", 2, 2, 2, "#0000ff").SetElevationRange(-100, 0);
      Composite composite(wormhole_rel);
      composite = composite.Overlay(Composite(underside), {});
      return display::Displayable(composite);
    });
    registry_.Register("away", []() -> Result<display::Displayable> {
      return display::Displayable(Dot("green", 7, 8, 3, "#00ff00"));
    });
    registry_.Register("pair", []() -> Result<display::Displayable> {
      std::vector<Composite> members;
      members.emplace_back(Dot("left", 0, 0, 2, "#ff0000"));
      members.emplace_back(Dot("right", 0, 0, 2, "#0000ff"));
      return display::Displayable(
          Group(members, display::GroupLayout::kHorizontal));
    });
  }

  CanvasRegistry registry_;
};

TEST_F(ViewerTest, RefreshBindsContent) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  EXPECT_EQ(viewer.num_members(), 1u);
  EXPECT_EQ(viewer.content().members()[0].size(), 2u);
  Viewer missing("v", "nope", &registry_);
  EXPECT_TRUE(missing.Refresh().IsNotFound());
}

TEST_F(ViewerTest, PassThroughRequiresLowElevationAndWormhole) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  // Hover over the wormhole (world (0,0)-(4,4)) but too high.
  viewer.mutable_camera()->MoveTo(2, 2);
  viewer.mutable_camera()->SetElevation(50);
  EXPECT_FALSE(viewer.TryPassThrough().value());
  // Descend to pass-through elevation.
  viewer.mutable_camera()->SetElevation(0.5);
  EXPECT_TRUE(viewer.TryPassThrough().value());
  EXPECT_EQ(viewer.canvas_name(), "away");
  // Landed at the wormhole's initial position and elevation (§6.2).
  EXPECT_DOUBLE_EQ(viewer.camera().center_x(), 7);
  EXPECT_DOUBLE_EQ(viewer.camera().center_y(), 8);
  EXPECT_DOUBLE_EQ(viewer.camera().elevation(), 5.0);
  ASSERT_EQ(viewer.travel_history().size(), 1u);
  EXPECT_EQ(viewer.travel_history()[0].canvas_name, "home");
}

TEST_F(ViewerTest, PassThroughMissesWhenNotOverWormhole) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  viewer.mutable_camera()->MoveTo(50, 50);
  viewer.mutable_camera()->SetElevation(0.5);
  EXPECT_FALSE(viewer.TryPassThrough().value());
  EXPECT_EQ(viewer.canvas_name(), "home");
}

TEST_F(ViewerTest, TravelBackRestoresCamera) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  viewer.mutable_camera()->MoveTo(2, 2);
  viewer.mutable_camera()->SetElevation(0.5);
  ASSERT_TRUE(viewer.TryPassThrough().value());
  ASSERT_TRUE(viewer.TravelBack().value());
  EXPECT_EQ(viewer.canvas_name(), "home");
  EXPECT_DOUBLE_EQ(viewer.camera().center_x(), 2);
  EXPECT_DOUBLE_EQ(viewer.camera().elevation(), 0.5);
  EXPECT_TRUE(viewer.travel_history().empty());
  EXPECT_FALSE(viewer.TravelBack().value());  // nothing left
}

TEST_F(ViewerTest, RearViewShowsUndersideOfDepartedCanvas) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  render::Framebuffer fb(100, 100, draw::kWhite);
  render::RasterSurface surface(&fb);
  // Before any travel the mirror is blank.
  auto empty_stats = viewer.RenderRearView(&surface).value();
  EXPECT_EQ(empty_stats.tuples_drawn, 0u);
  EXPECT_EQ(fb.CountPixels(draw::Color{0, 0, 255}), 0u);

  viewer.mutable_camera()->MoveTo(0, 0);
  viewer.mutable_camera()->SetElevation(0.5);
  // Move over the wormhole area: the hole spans (0,0)-(4,4).
  viewer.mutable_camera()->MoveTo(2, 2);
  ASSERT_TRUE(viewer.TryPassThrough().value());
  auto stats = viewer.RenderRearView(&surface).value();
  // The underside marker (blue, range [-100, 0]) is visible in the mirror.
  EXPECT_EQ(stats.tuples_drawn, 1u);
  EXPECT_GT(fb.CountPixels(draw::Color{0, 0, 255}), 0u);
}

TEST_F(ViewerTest, SlavingPropagatesNavigation) {
  Viewer a("a", "away", &registry_);
  Viewer b("b", "away", &registry_);
  ASSERT_TRUE(a.Refresh().ok());
  ASSERT_TRUE(b.Refresh().ok());
  ASSERT_TRUE(a.SlaveTo(&b).ok());
  double b_x = b.camera().center_x();
  double b_elev = b.camera().elevation();
  a.Pan(3, -1);
  a.Zoom(2.0);
  EXPECT_DOUBLE_EQ(b.camera().center_x(), b_x + 3);
  EXPECT_DOUBLE_EQ(b.camera().elevation(), b_elev / 2);
  // Mutual slaving must not recurse forever.
  ASSERT_TRUE(b.SlaveTo(&a).ok());
  a.Pan(1, 0);
  EXPECT_GT(a.num_slaves(), 0u);
  // Unslave severs both directions.
  a.Unslave(&b);
  double after = b.camera().center_x();
  a.Pan(5, 0);
  EXPECT_DOUBLE_EQ(b.camera().center_x(), after);
}

TEST_F(ViewerTest, SlavingChecksValidity) {
  Viewer a("a", "away", &registry_);
  ASSERT_TRUE(a.Refresh().ok());
  EXPECT_TRUE(a.SlaveTo(&a).IsInvalidArgument());
  EXPECT_TRUE(a.SlaveTo(nullptr).IsInvalidArgument());
}

TEST_F(ViewerTest, GroupMembersHaveIndependentCameras) {
  Viewer viewer("v", "pair", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  ASSERT_EQ(viewer.num_members(), 2u);
  ASSERT_TRUE(viewer.SetActiveMember(0).ok());
  viewer.Pan(10, 0);
  ASSERT_TRUE(viewer.SetActiveMember(1).ok());
  viewer.Pan(-5, 0);
  EXPECT_DOUBLE_EQ(viewer.camera_of(0).center_x(), 10);
  EXPECT_DOUBLE_EQ(viewer.camera_of(1).center_x(), -5);
  EXPECT_TRUE(viewer.SetActiveMember(5).IsOutOfRange());
}

TEST_F(ViewerTest, RenderGroupSplitsViewport) {
  Viewer viewer("v", "pair", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  for (size_t m = 0; m < 2; ++m) {
    viewer.mutable_camera_of(m)->MoveTo(0, 0);
    viewer.mutable_camera_of(m)->SetElevation(10);
  }
  render::Framebuffer fb(200, 100, draw::kWhite);
  render::RasterSurface surface(&fb);
  auto stats = viewer.RenderTo(&surface).value();
  EXPECT_EQ(stats.tuples_drawn, 2u);
  // Left cell shows red, right cell blue.
  EXPECT_GT(fb.CountPixels(draw::Color{255, 0, 0}), 0u);
  EXPECT_GT(fb.CountPixels(draw::Color{0, 0, 255}), 0u);
  // Red only on the left half.
  bool red_on_right = false;
  for (int x = 100; x < 200 && !red_on_right; ++x) {
    for (int y = 0; y < 100; ++y) {
      if (fb.Get(x, y) == (draw::Color{255, 0, 0})) {
        red_on_right = true;
        break;
      }
    }
  }
  EXPECT_FALSE(red_on_right);
}

TEST_F(ViewerTest, ElevationMapReflectsRanges) {
  Viewer viewer("v", "home", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  auto bars = viewer.ElevationMap(0).value();
  ASSERT_EQ(bars.size(), 2u);
  EXPECT_EQ(bars[0].relation_name, "holes");
  EXPECT_EQ(bars[1].relation_name, "underside");
  EXPECT_EQ(bars[1].max_elevation, 0);
  EXPECT_EQ(bars[1].drawing_order, 1u);
  EXPECT_TRUE(viewer.ElevationMap(9).status().IsOutOfRange());
}

TEST_F(ViewerTest, MagnifyingGlassMagnifies) {
  Viewer viewer("v", "away", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  viewer.mutable_camera()->MoveTo(7, 8);
  viewer.mutable_camera()->SetElevation(100);  // dot is tiny
  render::Framebuffer fb(100, 100, draw::kWhite);
  render::RasterSurface surface(&fb);
  ASSERT_TRUE(viewer.RenderTo(&surface).ok());
  size_t plain_green = fb.CountPixels(draw::Color{0, 255, 0});

  MagnifyingGlass glass;
  glass.rect = render::DeviceRect{25, 25, 50, 50};  // centered over the dot
  glass.zoom = 10.0;
  size_t index = viewer.AddMagnifyingGlass(glass);
  fb.Clear(draw::kWhite);
  ASSERT_TRUE(viewer.RenderTo(&surface).ok());
  size_t magnified_green = fb.CountPixels(draw::Color{0, 255, 0});
  EXPECT_GT(magnified_green, plain_green * 4);

  ASSERT_TRUE(viewer.RemoveMagnifyingGlass(index).ok());
  EXPECT_TRUE(viewer.RemoveMagnifyingGlass(9).IsOutOfRange());
  EXPECT_TRUE(viewer.magnifying_glasses().empty());
}

TEST_F(ViewerTest, MagnifyingGlassAlternativeDisplay) {
  // Figure 9: the glass shows an alternative display attribute.
  registry_.Register("alt", []() -> Result<display::Displayable> {
    DisplayRelation rel = Dot("data", 0, 0, 2, "#ff0000")
                              .AddAttribute("precip", "circle(2, \"#0000ff\", true)")
                              .value();
    return display::Displayable(rel);
  });
  Viewer viewer("v", "alt", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  viewer.mutable_camera()->MoveTo(0, 0);
  viewer.mutable_camera()->SetElevation(10);
  MagnifyingGlass glass;
  glass.rect = render::DeviceRect{30, 30, 40, 40};
  glass.zoom = 2.0;
  glass.display_attribute = "precip";
  viewer.AddMagnifyingGlass(glass);
  render::Framebuffer fb(100, 100, draw::kWhite);
  render::RasterSurface surface(&fb);
  ASSERT_TRUE(viewer.RenderTo(&surface).ok());
  // Outside the glass: red (main display). Inside: blue (alternative).
  EXPECT_GT(fb.CountPixels(draw::Color{255, 0, 0}), 0u);
  EXPECT_GT(fb.CountPixels(draw::Color{0, 0, 255}), 0u);
}

TEST_F(ViewerTest, HitTestAtRoutesToGroupMember) {
  Viewer viewer("v", "pair", &registry_);
  ASSERT_TRUE(viewer.Refresh().ok());
  for (size_t m = 0; m < 2; ++m) {
    viewer.mutable_camera_of(m)->MoveTo(0, 0);
    viewer.mutable_camera_of(m)->SetElevation(10);
  }
  render::Framebuffer fb(200, 100, draw::kWhite);
  render::RasterSurface surface(&fb);
  // Center of the left cell.
  auto left = viewer.HitTestAt(&surface, 50, 50).value();
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->group_member, 0u);
  EXPECT_EQ(left->relation_name, "left");
  // Center of the right cell.
  auto right = viewer.HitTestAt(&surface, 150, 50).value();
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->group_member, 1u);
  EXPECT_EQ(right->relation_name, "right");
  // Empty corner.
  auto miss = viewer.HitTestAt(&surface, 5, 5).value();
  EXPECT_FALSE(miss.has_value());
}

TEST_F(ViewerTest, CloneViewIsIndependent) {
  Viewer original("v", "away", &registry_);
  ASSERT_TRUE(original.Refresh().ok());
  original.mutable_camera()->MoveTo(7, 8);
  original.mutable_camera()->SetElevation(3);
  original.AddMagnifyingGlass(MagnifyingGlass{});
  std::unique_ptr<Viewer> clone = original.CloneView("v2");
  EXPECT_EQ(clone->canvas_name(), "away");
  EXPECT_DOUBLE_EQ(clone->camera().center_x(), 7);
  EXPECT_DOUBLE_EQ(clone->camera().elevation(), 3);
  EXPECT_EQ(clone->magnifying_glasses().size(), 1u);
  // Independent navigation after cloning.
  clone->Pan(10, 0);
  EXPECT_DOUBLE_EQ(original.camera().center_x(), 7);
  EXPECT_DOUBLE_EQ(clone->camera().center_x(), 17);
  // The clone can render on its own.
  render::Framebuffer fb(50, 50, draw::kWhite);
  render::RasterSurface surface(&fb);
  EXPECT_TRUE(clone->RenderTo(&surface).ok());
}

TEST_F(ViewerTest, FitContentCoversData) {
  Viewer viewer("v", "away", &registry_);
  ASSERT_TRUE(viewer.FitContent(100, 100).ok());
  EXPECT_TRUE(viewer.camera().VisibleWorld().Contains(7, 8));
}

// ---- Scalar and vectorized renders agree on every figure program ----
//
// The scalar policy renders per row (LocationOf / DisplayOf per tuple); a
// vectorized policy renders batch-at-a-time. The per-row path is the oracle:
// framebuffer bytes and RenderStats must match it exactly.

constexpr int kFigW = 320;
constexpr int kFigH = 240;

RenderOptions PolicyOptions(bool vectorized) {
  db::ExecPolicy policy;
  policy.vectorized = vectorized;
  if (!vectorized) policy.simd = db::SimdLevel::kScalar;
  RenderOptions options;
  options.policy = policy;
  return options;
}

struct Frame {
  std::string pixels;
  RenderStats stats;
  size_t ink = 0;  // pixels not left white
};

Frame RenderFrame(const Viewer& viewer, bool vectorized) {
  render::Framebuffer fb(kFigW, kFigH, draw::kWhite);
  render::RasterSurface surface(&fb);
  Result<RenderStats> stats = viewer.RenderTo(&surface, PolicyOptions(vectorized));
  EXPECT_TRUE(stats.ok()) << stats.status().message();
  return Frame{fb.ToPpm(), stats.ok() ? stats.value() : RenderStats{},
               fb.CountPixelsNotEqual(draw::kWhite)};
}

/// Renders `viewer` under both policies, expects identical bytes and stats,
/// and returns the vectorized frame.
Frame ExpectPoliciesAgree(const Viewer& viewer, const std::string& what) {
  SCOPED_TRACE(what);
  Frame scalar = RenderFrame(viewer, false);
  Frame vectorized = RenderFrame(viewer, true);
  EXPECT_TRUE(scalar.pixels == vectorized.pixels) << "framebuffer bytes differ";
  EXPECT_EQ(scalar.stats, vectorized.stats);
  return vectorized;
}

std::unique_ptr<Environment> BuildFigEnv(const testing::FigProgram& program) {
  auto env = std::make_unique<Environment>();
  EXPECT_TRUE(env->LoadDemoData(program.extra_stations, program.num_days).ok());
  Status built = program.build(env.get());
  EXPECT_TRUE(built.ok()) << program.name << ": " << built.message();
  return env;
}

const testing::FigProgram& FigProgramNamed(const std::vector<testing::FigProgram>& all,
                                           const std::string& name) {
  for (const testing::FigProgram& program : all) {
    if (program.name == name) return program;
  }
  ADD_FAILURE() << "no figure program " << name;
  return all.front();
}

/// One camera per member, all moved the same way from the fitted cameras.
struct CameraVariant {
  std::string name;
  std::vector<Camera> cameras;
};

/// The camera set: fitted; zoomed x0.4, x1.7 and x16; panned past each edge
/// by a seeded 0.6-0.9 of the view; and a slider on location dimension 2
/// (fig04's altitude), which only 3-D members observe.
std::vector<CameraVariant> CameraSet(const std::vector<Camera>& fitted, Rng* rng) {
  std::vector<CameraVariant> set;
  auto add = [&](std::string name, auto&& move) {
    CameraVariant variant{std::move(name), fitted};
    for (Camera& camera : variant.cameras) move(&camera);
    set.push_back(std::move(variant));
  };
  add("fitted", [](Camera*) {});
  for (double factor : {0.4, 1.7, 16.0}) {
    add("zoom x" + std::to_string(factor), [factor](Camera* c) { c->Zoom(factor); });
  }
  const double f = rng->Uniform(0.6, 0.9);
  const struct {
    const char* name;
    double dx, dy;
  } pans[] = {{"pan left", -f, 0}, {"pan right", f, 0}, {"pan down", 0, -f}, {"pan up", 0, f}};
  for (const auto& pan : pans) {
    add(pan.name, [&pan](Camera* c) {
      draw::BBox view = c->VisibleWorld();
      c->Pan(pan.dx * view.Width(), pan.dy * view.Height());
    });
  }
  add("slider", [](Camera* c) { c->SetSlider(2, SliderRange{0, 50}); });
  return set;
}

std::vector<Camera> CamerasOf(const Viewer& viewer) {
  std::vector<Camera> cameras;
  for (size_t m = 0; m < viewer.num_members(); ++m) cameras.push_back(viewer.camera_of(m));
  return cameras;
}

void SetCameras(Viewer* viewer, const std::vector<Camera>& cameras) {
  for (size_t m = 0; m < cameras.size(); ++m) *viewer->mutable_camera_of(m) = cameras[m];
}

TEST(RenderPolicyIdentityTest, EveryFigureUnderTheCameraSet) {
  Rng rng(0x7469'6f67'6132ULL);
  size_t fig8_wormholes = 0;
  size_t slider_culled = 0;
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    SCOPED_TRACE(program.name);
    std::unique_ptr<Environment> env = BuildFigEnv(program);
    for (const std::string& canvas : program.canvases) {
      Result<Viewer*> viewer = env->GetViewer(canvas);
      ASSERT_TRUE(viewer.ok()) << viewer.status().message();
      ASSERT_TRUE(viewer.value()->FitContent(kFigW, kFigH).ok());
      for (const CameraVariant& variant : CameraSet(CamerasOf(*viewer.value()), &rng)) {
        SetCameras(viewer.value(), variant.cameras);
        Frame frame = ExpectPoliciesAgree(*viewer.value(), canvas + " " + variant.name);
        if (canvas == "fig8") fig8_wormholes += frame.stats.wormholes_rendered;
        slider_culled += frame.stats.tuples_culled_slider;
      }
    }
  }
  // fig08 draws its temperature canvas through nested wormhole viewports.
  EXPECT_GT(fig8_wormholes, 0u);
  EXPECT_GT(slider_culled, 0u);
}

TEST(RenderPolicyIdentityTest, MagnifyingGlassWithDisplaySwitch) {
  std::vector<testing::FigProgram> all = testing::AllFigPrograms();
  std::unique_ptr<Environment> env = BuildFigEnv(FigProgramNamed(all, "fig09"));
  Result<Viewer*> viewer = env->GetViewer("fig9");
  ASSERT_TRUE(viewer.ok()) << viewer.status().message();
  ASSERT_TRUE(viewer.value()->FitContent(kFigW, kFigH).ok());
  Frame plain = ExpectPoliciesAgree(*viewer.value(), "no glass");
  MagnifyingGlass glass;
  glass.rect = render::DeviceRect{80.5, 60.5, 160, 120};
  glass.zoom = 3.0;
  glass.display_attribute = "precip_d";
  viewer.value()->AddMagnifyingGlass(glass);
  Frame magnified = ExpectPoliciesAgree(*viewer.value(), "precipitation glass");
  EXPECT_FALSE(plain.pixels == magnified.pixels);
}

TEST(RenderPolicyIdentityTest, DeltaRepaintUnderADirtyRectClip) {
  std::vector<testing::FigProgram> all = testing::AllFigPrograms();
  std::unique_ptr<Environment> env = BuildFigEnv(FigProgramNamed(all, "fig04"));
  Result<Viewer*> viewer = env->GetViewer("fig4");
  ASSERT_TRUE(viewer.ok()) << viewer.status().message();
  ASSERT_TRUE(viewer.value()->FitContent(kFigW, kFigH).ok());
  // Both viewers hold the pre-edit content; each renders under one policy.
  std::unique_ptr<Viewer> twin = viewer.value()->CloneView("twin");
  Viewer* viewers[2] = {viewer.value(), twin.get()};
  render::Framebuffer fbs[2] = {render::Framebuffer(kFigW, kFigH, draw::kWhite),
                                render::Framebuffer(kFigW, kFigH, draw::kWhite)};
  std::vector<render::RasterSurface> surfaces = {render::RasterSurface(&fbs[0]),
                                                 render::RasterSurface(&fbs[1])};
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(viewers[p]->RenderTo(&surfaces[p], PolicyOptions(p == 1)).ok());
  }
  ASSERT_TRUE(fbs[0].ToPpm() == fbs[1].ToPpm());

  // Click New Orleans and move it north: its dot's old and new footprints
  // are the dirty rectangle.
  double dx = 0;
  double dy = 0;
  viewer.value()->camera().WorldToDevice(-90.08, 29.95, &dx, &dy);
  Result<std::optional<Hit>> hit = viewer.value()->HitTestAt(&surfaces[0], dx, dy);
  ASSERT_TRUE(hit.ok() && hit.value().has_value());
  ASSERT_TRUE(env->session()
                  .ClickUpdate("fig4", *hit.value(), "Stations", {{"latitude", "30.05"}})
                  .ok());
  const dataflow::ValueDelta* delta = env->session().LastCanvasDelta("fig4");
  ASSERT_NE(delta, nullptr);

  // A marker far from the edit: a full repaint would erase it, a repaint
  // clipped to the dirty rectangle leaves it.
  const draw::Color marker{255, 0, 255};
  RenderStats stats[2];
  for (int p = 0; p < 2; ++p) {
    fbs[p].Set(0, 0, marker);
    Result<RenderStats> repaint =
        viewers[p]->RenderDeltaTo(&surfaces[p], *delta, draw::kWhite, PolicyOptions(p == 1));
    ASSERT_TRUE(repaint.ok()) << repaint.status().message();
    stats[p] = repaint.value();
    EXPECT_EQ(fbs[p].Get(0, 0), marker);
  }
  EXPECT_TRUE(fbs[0].ToPpm() == fbs[1].ToPpm());
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_GT(stats[1].tuples_drawn, 0u);
}

// Deep zoom bounds the rasterizer's work by the framebuffer, not the zoom:
// fig01 and fig07 render at Zoom(1e4) and at the minimum elevation, where
// device coordinates and glyph scales would overflow int unsaturated. Each
// view is centred on ink: fig01's fitted centre falls on a text row, and
// fig07 centres on a station dot of its topmost (labels) relation.
TEST(RenderPolicyIdentityTest, DeepZoomStaysBounded) {
  std::vector<testing::FigProgram> all = testing::AllFigPrograms();
  for (const char* name : {"fig01", "fig07"}) {
    const testing::FigProgram& program = FigProgramNamed(all, name);
    SCOPED_TRACE(program.name);
    std::unique_ptr<Environment> env = BuildFigEnv(program);
    Result<Viewer*> viewer = env->GetViewer(program.canvases[0]);
    ASSERT_TRUE(viewer.ok()) << viewer.status().message();
    ASSERT_TRUE(viewer.value()->FitContent(kFigW, kFigH).ok());
    if (program.name == "fig07") {
      const display::CompositeEntry& top =
          viewer.value()->content().members()[0].entries().back();
      Result<std::vector<double>> location = top.relation.LocationOf(0);
      ASSERT_TRUE(location.ok()) << location.status().message();
      viewer.value()->mutable_camera()->MoveTo(location.value()[0] + top.OffsetAt(0),
                                              location.value()[1] + top.OffsetAt(1));
    }
    viewer.value()->Zoom(1e4);
    EXPECT_GT(ExpectPoliciesAgree(*viewer.value(), "zoom x1e4").ink, 0u);
    viewer.value()->Zoom(1e300);  // clamps to the minimum elevation
    EXPECT_GT(ExpectPoliciesAgree(*viewer.value(), "minimum elevation").ink, 0u);
  }
}

}  // namespace
}  // namespace tioga2::viewer
