#ifndef TIOGA2_VIEWER_CANVAS_RENDERER_H_
#define TIOGA2_VIEWER_CANVAS_RENDERER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "db/exec_policy.h"
#include "display/displayable.h"
#include "render/surface.h"
#include "viewer/camera.h"
#include "viewer/canvas_registry.h"

namespace tioga2::viewer {

/// Counters reported by a render pass. Tests and benchmarks assert on these
/// (e.g. that the Set Range boxes of Figure 7 actually cull station names at
/// high elevation).
struct RenderStats {
  size_t tuples_total = 0;           // tuples in all visible relations
  size_t tuples_drawn = 0;           // tuples whose display reached the surface
  size_t tuples_culled_slider = 0;   // rejected by a slider range
  size_t tuples_culled_viewport = 0; // outside the visible world rectangle
  size_t relations_skipped = 0;      // whole relations outside their elevation range
  size_t tuple_errors = 0;           // location/display evaluation failures
  size_t wormholes_rendered = 0;     // nested canvases drawn through viewers

  RenderStats& operator+=(const RenderStats& other);
  friend bool operator==(const RenderStats& a, const RenderStats& b) = default;
};

/// Options for one render pass.
struct RenderOptions {
  /// Rear-view mirror mode (§6.3): show the canvas underside — only
  /// displayables whose elevation range reaches below zero, horizontally
  /// mirrored as in a mirror.
  bool underside = false;
  /// How many levels of wormhole canvases to render inside viewer drawables.
  /// 0 draws wormholes as framed rectangles only.
  int wormhole_depth = 1;
  /// Resolves wormhole destination canvases; may be null (wormholes are then
  /// drawn as frames).
  const CanvasRegistry* registry = nullptr;
  /// Execution policy for attribute evaluation; unset resolves
  /// db::DefaultExecPolicy() at render time. A vectorized policy renders
  /// batch-at-a-time (location and display attributes evaluated per slice
  /// of rows), a scalar one per row. Both produce bit-identical pixels and
  /// equal RenderStats.
  std::optional<db::ExecPolicy> policy;
};

/// Renders a composite through `camera` onto `surface`. Relations draw in
/// composite order (§2); each relation is skipped entirely when the camera
/// elevation is outside its elevation range (§6.1).
Result<RenderStats> RenderComposite(const display::Composite& composite,
                                    const Camera& camera, render::Surface* surface,
                                    const RenderOptions& options = {});

/// A hit-test result: which member of the composite and which base row was
/// topmost under the queried point.
struct Hit {
  size_t member = 0;        // index within the composite
  size_t group_member = 0;  // index within the group (set by Viewer::HitTestAt)
  size_t row = 0;           // base-relation row
  std::string relation_name;
};

/// Finds the topmost tuple whose display bounds contain the device point
/// (dx, dy). Respects drawing order (later members and rows win), elevation
/// ranges, and slider filters — only what is visible can be clicked (§8).
Result<std::optional<Hit>> HitTest(const display::Composite& composite,
                                   const Camera& camera, double dx, double dy);

/// Finds the topmost *wormhole* drawable whose rectangle contains the world
/// point (wx, wy); used for fly-through (§6.2).
Result<std::optional<draw::WormholeSpec>> FindWormholeAt(
    const display::Composite& composite, const Camera& camera, double wx, double wy);

}  // namespace tioga2::viewer

#endif  // TIOGA2_VIEWER_CANVAS_RENDERER_H_
