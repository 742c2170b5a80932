#include "viewer/canvas_renderer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "display/display_relation.h"
#include "expr/batch.h"

namespace tioga2::viewer {

using display::Composite;
using display::CompositeEntry;

RenderStats& RenderStats::operator+=(const RenderStats& other) {
  tuples_total += other.tuples_total;
  tuples_drawn += other.tuples_drawn;
  tuples_culled_slider += other.tuples_culled_slider;
  tuples_culled_viewport += other.tuples_culled_viewport;
  relations_skipped += other.relations_skipped;
  tuple_errors += other.tuple_errors;
  wormholes_rendered += other.wormholes_rendered;
  return *this;
}

namespace {

/// World-to-device projection for one render pass; handles the horizontal
/// mirroring of rear-view renders (§6.3).
struct Projector {
  const Camera& camera;
  bool mirror = false;

  void ToDevice(double wx, double wy, double* dx, double* dy) const {
    camera.WorldToDevice(wx, wy, dx, dy);
    if (mirror) *dx = camera.viewport_width() - *dx;
  }
  double Length(double world) const { return world * camera.Scale(); }
};

/// Whether a relation participates in this pass given its elevation range:
/// the top side shows ranges containing the camera elevation, the underside
/// (rear view mirror) shows ranges containing the negated elevation (§6.3).
bool ElevationVisible(const display::ElevationRange& range, const Camera& camera,
                      bool underside) {
  return range.Contains(underside ? -camera.elevation() : camera.elevation());
}

/// Visibility decision for one tuple; shared by rendering and hit-testing.
enum class TupleVisibility { kVisible, kSliderCulled, kViewportCulled, kError };

/// Whether a display list with bounds `list_bounds`, drawn at world (x, y),
/// overlaps the visible world rectangle.
bool InView(draw::BBox list_bounds, double x, double y, const draw::BBox& visible) {
  list_bounds.min_x += x;
  list_bounds.max_x += x;
  list_bounds.min_y += y;
  list_bounds.max_y += y;
  return list_bounds.Intersects(visible);
}

TupleVisibility ClassifyTuple(const display::DisplayRelation& relation,
                              const CompositeEntry& entry, const Camera& camera,
                              size_t row, std::vector<double>* location_out,
                              draw::DrawableList* display_out) {
  Result<std::vector<double>> location = relation.LocationOf(row);
  if (!location.ok()) return TupleVisibility::kError;
  std::vector<double>& loc = *location_out;
  loc = std::move(location).value();
  for (size_t d = 0; d < loc.size(); ++d) loc[d] += entry.OffsetAt(d);
  for (size_t d = 2; d < loc.size(); ++d) {
    if (!camera.SliderAccepts(d, loc[d])) return TupleVisibility::kSliderCulled;
  }
  Result<draw::DrawableList> displayed = relation.DisplayOf(row);
  if (!displayed.ok()) return TupleVisibility::kError;
  *display_out = std::move(displayed).value();
  if (!InView(draw::DrawableListBounds(*display_out), loc[0], loc[1],
              camera.VisibleWorld())) {
    return TupleVisibility::kViewportCulled;
  }
  return TupleVisibility::kVisible;
}

Status RenderDrawable(const draw::Drawable& drawable, double wx, double wy,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats);

Status RenderDisplayList(const draw::DrawableList& list, double wx, double wy,
                         const Projector& projector, render::Surface* surface,
                         const RenderOptions& options, RenderStats* stats) {
  if (list == nullptr) return Status::OK();
  for (const draw::Drawable& drawable : *list) {
    TIOGA2_RETURN_IF_ERROR(
        RenderDrawable(drawable, wx, wy, projector, surface, options, stats));
  }
  return Status::OK();
}

Status RenderWormhole(const draw::Drawable& drawable, double ax, double ay,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats) {
  // Device rectangle of the viewer window (world rect is anchored at its
  // lower-left corner, like kRectangle).
  double dx0 = 0;
  double dy0 = 0;
  projector.ToDevice(ax, ay + drawable.b, &dx0, &dy0);  // top-left in device space
  double w = projector.Length(drawable.a);
  double h = projector.Length(drawable.b);
  render::DeviceRect target{dx0, dy0, w, h};

  // Frame: light fill plus border, so an unresolvable wormhole still shows.
  draw::Style fill_style;
  fill_style.fill = draw::FillMode::kFilled;
  surface->DrawRect(dx0, dy0, w, h, fill_style, draw::kWhite);

  if (options.wormhole_depth > 0 && options.registry != nullptr &&
      options.registry->Has(drawable.wormhole.destination_canvas)) {
    TIOGA2_ASSIGN_OR_RETURN(
        display::Displayable destination,
        options.registry->Resolve(drawable.wormhole.destination_canvas));
    // Render the first composite of the destination through the wormhole's
    // initial position (§6.2: destination canvas, elevation, location).
    display::Group group = display::AsGroup(destination);
    if (!group.members().empty()) {
      const Composite& inner = group.members()[0];
      // Nominal inner viewport: match the wormhole's aspect at ~256 px.
      int inner_w = 256;
      int inner_h = h > 0 && w > 0
                        ? std::max(1, static_cast<int>(std::lround(256.0 * h / w)))
                        : 256;
      Camera inner_camera(drawable.wormhole.initial_x, drawable.wormhole.initial_y,
                          drawable.wormhole.elevation, inner_w, inner_h);
      RenderOptions inner_options = options;
      inner_options.wormhole_depth = options.wormhole_depth - 1;
      inner_options.underside = false;
      surface->PushViewport(target, inner_w, inner_h);
      Result<RenderStats> inner_stats =
          RenderComposite(inner, inner_camera, surface, inner_options);
      surface->PopViewport();
      TIOGA2_RETURN_IF_ERROR(inner_stats.status());
      *stats += inner_stats.value();
      ++stats->wormholes_rendered;
    }
  }

  draw::Style border;
  border.thickness = 1;
  surface->DrawRect(dx0, dy0, w, h, border, draw::kGray);
  return Status::OK();
}

Status RenderDrawable(const draw::Drawable& drawable, double wx, double wy,
                      const Projector& projector, render::Surface* surface,
                      const RenderOptions& options, RenderStats* stats) {
  double ax = wx + drawable.offset_x;
  double ay = wy + drawable.offset_y;
  double dx = 0;
  double dy = 0;
  projector.ToDevice(ax, ay, &dx, &dy);
  switch (drawable.kind) {
    case draw::DrawableKind::kPoint:
      surface->DrawPoint(dx, dy, drawable.style.thickness, drawable.color);
      return Status::OK();
    case draw::DrawableKind::kLine: {
      double ex = 0;
      double ey = 0;
      projector.ToDevice(ax + drawable.a, ay + drawable.b, &ex, &ey);
      surface->DrawLine(dx, dy, ex, ey, drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kRectangle: {
      // World rect anchored at lower-left; device rect needs its top-left.
      double tx = 0;
      double ty = 0;
      projector.ToDevice(ax, ay + drawable.b, &tx, &ty);
      surface->DrawRect(tx, ty, projector.Length(drawable.a),
                        projector.Length(drawable.b), drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kCircle:
      surface->DrawCircle(dx, dy, projector.Length(drawable.a), drawable.style,
                          drawable.color);
      return Status::OK();
    case draw::DrawableKind::kPolygon: {
      std::vector<draw::Point> device;
      device.reserve(drawable.points.size());
      for (const draw::Point& p : drawable.points) {
        double px = 0;
        double py = 0;
        projector.ToDevice(ax + p.x, ay + p.y, &px, &py);
        device.push_back(draw::Point{px, py});
      }
      surface->DrawPolygon(device, drawable.style, drawable.color);
      return Status::OK();
    }
    case draw::DrawableKind::kText:
      surface->DrawText(drawable.text, dx, dy, projector.Length(drawable.a),
                        drawable.color);
      return Status::OK();
    case draw::DrawableKind::kViewer:
      return RenderWormhole(drawable, ax, ay, projector, surface, options, stats);
  }
  return Status::Internal("unhandled drawable kind");
}

/// Draws one visible tuple's display list at world (x, y).
Status DrawTuple(const draw::DrawableList& list, double x, double y,
                 const Projector& projector, render::Surface* surface,
                 const RenderOptions& options, RenderStats* stats) {
  TIOGA2_RETURN_IF_ERROR(
      RenderDisplayList(list, x, y, projector, surface, options, stats));
  if (list != nullptr && !list->empty()) ++stats->tuples_drawn;
  return Status::OK();
}

/// The per-row render loop over rows [begin, end) of `entry`: LocationOf and
/// DisplayOf for every tuple, each drawn as soon as it classifies visible.
/// This is the scalar policy's path and the oracle for RenderSlices.
Status RenderRows(const CompositeEntry& entry, const Camera& camera, size_t begin,
                  size_t end, const Projector& projector, render::Surface* surface,
                  const RenderOptions& options, RenderStats* stats) {
  std::vector<double> location;
  draw::DrawableList display_list;
  for (size_t row = begin; row < end; ++row) {
    switch (ClassifyTuple(entry.relation, entry, camera, row, &location, &display_list)) {
      case TupleVisibility::kError:
        ++stats->tuple_errors;
        continue;
      case TupleVisibility::kSliderCulled:
        ++stats->tuples_culled_slider;
        continue;
      case TupleVisibility::kViewportCulled:
        ++stats->tuples_culled_viewport;
        continue;
      case TupleVisibility::kVisible:
        break;
    }
    TIOGA2_RETURN_IF_ERROR(DrawTuple(display_list, location[0], location[1], projector,
                                     surface, options, stats));
  }
  return Status::OK();
}

/// Element i of a batch display vector as DisplayOf returns it, a null value
/// as `empty`; nullptr where DisplayOf fails (a non-display value). The
/// result points into `displays` or `empty`, or into `*gathered`, which
/// receives the element when `displays` is neither constant nor boxed.
const draw::DrawableList* DisplayAt(const expr::Vec& displays, size_t i,
                                    const draw::DrawableList& empty,
                                    types::Value* gathered) {
  const types::Value* value = gathered;
  if (displays.rep == expr::Vec::Rep::kConst) {
    value = &displays.cval;
  } else if (displays.is_boxed()) {
    value = &displays.boxed[i];
  } else {
    *gathered = displays.ValueAt(i);
  }
  if (value->is_null()) return &empty;
  if (!value->is_display()) return nullptr;
  return &value->display_value();
}

/// The batch-at-a-time render loop over one relation, used under a
/// vectorized policy. For each expr::kBatchSize slice of rows it evaluates
/// the location attributes into doubles with a validity mask, applies the
/// composite offsets and sliders, evaluates the active display over the
/// surviving rows, then culls and draws those rows in row order. Displays
/// without a batch form are taken per row at draw time. A slice whose batch
/// evaluation fails renders through RenderRows instead, so the pixels and
/// RenderStats always equal the per-row path's. Nothing boxed outlives a
/// slice.
Status RenderSlices(const CompositeEntry& entry, const Camera& camera,
                    const db::ExecPolicy& policy, const Projector& projector,
                    render::Surface* surface, const RenderOptions& options,
                    RenderStats* stats) {
  const display::DisplayRelation& relation = entry.relation;
  const size_t num_rows = relation.num_rows();
  const size_t dims = relation.Dimension();
  display::SliceEvaluator evaluator(relation, policy);
  const bool batch_display = evaluator.DisplayBatchable();
  const draw::BBox visible = camera.VisibleWorld();
  const draw::DrawableList empty = draw::MakeDrawableList({});
  std::vector<double> offsets(dims);
  for (size_t d = 0; d < dims; ++d) offsets[d] = entry.OffsetAt(d);
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();

  expr::Selection rows;
  expr::Selection live;  // rows that pass the location checks and sliders
  std::vector<std::vector<double>> location(dims);
  std::vector<uint8_t> valid;
  std::optional<expr::Vec> displays;
  for (size_t begin = 0; begin < num_rows; begin += expr::kBatchSize) {
    const size_t end = std::min(begin + expr::kBatchSize, num_rows);
    expr::IdentitySelection(begin, end, &rows);
    valid.assign(rows.size(), 1);
    Status evaluated = Status::OK();
    for (size_t d = 0; d < dims && evaluated.ok(); ++d) {
      evaluated = evaluator.Location(d, rows, &location[d], &valid);
    }
    // Counted here, committed only once the whole slice has evaluated.
    RenderStats slice;
    live.clear();
    if (evaluated.ok()) {
      for (size_t k = 0; k < rows.size(); ++k) {
        if (valid[k] == 0) {
          ++slice.tuple_errors;
          continue;
        }
        for (size_t d = 0; d < dims; ++d) location[d][k] += offsets[d];
        bool accepted = true;
        for (size_t d = 2; d < dims && accepted; ++d) {
          accepted = camera.SliderAccepts(d, location[d][k]);
        }
        if (!accepted) {
          ++slice.tuples_culled_slider;
          continue;
        }
        live.push_back(rows[k]);
      }
    }
    displays.reset();
    if (evaluated.ok() && batch_display && !live.empty()) {
      Result<expr::Vec> batch = evaluator.Displays(live);
      evaluated = batch.status();
      if (batch.ok()) displays = std::move(batch).value();
    }
    if (!evaluated.ok()) {
      ++metrics.render_scalar_fallbacks;
      TIOGA2_RETURN_IF_ERROR(
          RenderRows(entry, camera, begin, end, projector, surface, options, stats));
      continue;
    }
    ++metrics.render_location_batches;
    *stats += slice;

    // Rows sharing one display list (a constant display) share its bounds.
    // `bounded` is only compared while the list it names is still held.
    types::Value gathered;
    draw::DrawableList per_row;
    const std::vector<draw::Drawable>* bounded = nullptr;
    draw::BBox bounds;
    for (size_t i = 0; i < live.size(); ++i) {
      const size_t row = live[i];
      const draw::DrawableList* list = &per_row;
      if (displays.has_value()) {
        list = DisplayAt(*displays, i, empty, &gathered);
      } else {
        Result<draw::DrawableList> displayed = relation.DisplayOf(row);
        if (displayed.ok()) {
          per_row = std::move(displayed).value();
        } else {
          list = nullptr;
        }
      }
      if (list == nullptr) {
        ++stats->tuple_errors;
        continue;
      }
      if (list->get() != bounded || bounded == nullptr) {
        bounds = draw::DrawableListBounds(*list);
        bounded = list->get();
      }
      const double x = location[0][row - begin];
      const double y = location[1][row - begin];
      if (!InView(bounds, x, y, visible)) {
        ++stats->tuples_culled_viewport;
        continue;
      }
      TIOGA2_RETURN_IF_ERROR(DrawTuple(*list, x, y, projector, surface, options, stats));
    }
  }
  return Status::OK();
}

}  // namespace

Result<RenderStats> RenderComposite(const Composite& composite, const Camera& camera,
                                    render::Surface* surface,
                                    const RenderOptions& options) {
  RenderStats stats;
  Projector projector{camera, options.underside};
  db::ExecPolicy policy = options.policy.value_or(db::DefaultExecPolicy());
  for (const CompositeEntry& entry : composite.entries()) {
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, options.underside)) {
      ++stats.relations_skipped;
      continue;
    }
    stats.tuples_total += relation.num_rows();
    if (policy.vectorized) {
      TIOGA2_RETURN_IF_ERROR(
          RenderSlices(entry, camera, policy, projector, surface, options, &stats));
    } else {
      TIOGA2_RETURN_IF_ERROR(RenderRows(entry, camera, 0, relation.num_rows(), projector,
                                        surface, options, &stats));
    }
  }
  return stats;
}

Result<std::optional<Hit>> HitTest(const Composite& composite, const Camera& camera,
                                   double dx, double dy) {
  double wx = 0;
  double wy = 0;
  camera.DeviceToWorld(dx, dy, &wx, &wy);
  // Iterate topmost-first: later members draw above earlier ones, and later
  // rows above earlier rows.
  for (size_t m = composite.size(); m-- > 0;) {
    const CompositeEntry& entry = composite.entries()[m];
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, /*underside=*/false)) {
      continue;
    }
    for (size_t row = relation.num_rows(); row-- > 0;) {
      std::vector<double> location;
      draw::DrawableList display_list;
      if (ClassifyTuple(relation, entry, camera, row, &location, &display_list) !=
          TupleVisibility::kVisible) {
        continue;
      }
      draw::BBox bounds = draw::DrawableListBounds(display_list);
      if (bounds.Contains(wx - location[0], wy - location[1])) {
        return std::optional<Hit>(Hit{m, 0, row, relation.name()});
      }
    }
  }
  return std::optional<Hit>();
}

Result<std::optional<draw::WormholeSpec>> FindWormholeAt(const Composite& composite,
                                                         const Camera& camera,
                                                         double wx, double wy) {
  for (size_t m = composite.size(); m-- > 0;) {
    const CompositeEntry& entry = composite.entries()[m];
    const display::DisplayRelation& relation = entry.relation;
    if (!ElevationVisible(relation.elevation_range(), camera, /*underside=*/false)) {
      continue;
    }
    for (size_t row = relation.num_rows(); row-- > 0;) {
      std::vector<double> location;
      draw::DrawableList display_list;
      if (ClassifyTuple(relation, entry, camera, row, &location, &display_list) !=
          TupleVisibility::kVisible) {
        continue;
      }
      if (display_list == nullptr) continue;
      for (size_t i = display_list->size(); i-- > 0;) {
        const draw::Drawable& d = (*display_list)[i];
        if (d.kind != draw::DrawableKind::kViewer) continue;
        double x0 = location[0] + d.offset_x;
        double y0 = location[1] + d.offset_y;
        if (wx >= x0 && wx <= x0 + d.a && wy >= y0 && wy <= y0 + d.b) {
          return std::optional<draw::WormholeSpec>(d.wormhole);
        }
      }
    }
  }
  return std::optional<draw::WormholeSpec>();
}

}  // namespace tioga2::viewer
