#ifndef TIOGA2_DISPLAY_DISPLAY_RELATION_H_
#define TIOGA2_DISPLAY_DISPLAY_RELATION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/exec_policy.h"
#include "db/relation.h"
#include "draw/drawable.h"
#include "expr/expr.h"

namespace tioga2::expr {
struct Vec;
using Selection = std::vector<uint32_t>;  // as declared in expr/batch.h
}  // namespace tioga2::expr

namespace tioga2::display {

/// How an attribute of an extended relation obtains its value.
enum class AttrSource {
  kStored,          // a column of the base relation
  kExpr,            // a computed attribute (a "method", §2)
  kCombine,         // Combine Displays of two other attributes (§5.3)
  kRowNumber,       // the tuple sequence number (the default y, §5.2)
  kDefaultDisplay,  // every stored field rendered side by side (§5.2)
};

/// One attribute (stored or computed) of an extended relation.
struct Attribute {
  std::string name;
  types::DataType type = types::DataType::kFloat;
  AttrSource source = AttrSource::kExpr;

  // kStored: position in the base relation's schema.
  size_t stored_index = 0;
  // kExpr: the defining expression.
  std::optional<expr::CompiledExpr> definition;
  // kCombine: names of the two combined display attributes and the offset
  // of the second relative to the first.
  std::string combine_first;
  std::string combine_second;
  double combine_dx = 0;
  double combine_dy = 0;

  // Scale/Translate Attribute (§5.3) accumulate here and apply after the
  // source value is computed: value * scale + translate (numeric only).
  double scale = 1.0;
  double translate = 0.0;
};

/// The elevation range of a displayable (§6.1 Set Range / §6.3): the
/// displayable contributes to a canvas only when the viewer's elevation is
/// inside [min, max]. Negative elevations are the canvas underside, visible
/// in rear view mirrors; the default range [0, +inf) puts a displayable on
/// the top side at every elevation ("if both are positive, then the viewer
/// only shows objects on the top side of the canvas", §6.3).
struct ElevationRange {
  double min = 0;
  double max = std::numeric_limits<double>::infinity();

  bool Contains(double elevation) const {
    return elevation >= min && elevation <= max;
  }

  friend bool operator==(const ElevationRange& a, const ElevationRange& b) = default;
};

/// An extended database relation — the displayable type R of §2. The base
/// tuples come from an immutable db::Relation; location and display
/// attributes are computed attributes layered on top ("the location and
/// display attributes used to define visualizations are computed attributes
/// and are not stored in the database", §2).
///
/// Invariants: at least two location dimensions (x and y) and exactly one
/// active display attribute. DisplayRelation is a value type: every editing
/// operation returns a modified copy, which is what gives the dataflow
/// engine's memoized boxes their snapshot semantics.
class DisplayRelation {
 public:
  DisplayRelation() = default;

  /// Wraps `base` with the §5.2 defaults: location (0, sequence-number) and
  /// a display rendering each field side by side as text.
  static Result<DisplayRelation> WithDefaults(std::string name, db::RelationPtr base);

  // ---- Introspection ----

  /// A name for elevation maps and group UIs (usually the source table).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const db::RelationPtr& base() const { return base_; }
  size_t num_rows() const { return base_->num_rows(); }

  /// All attributes, stored first (in schema order) as built by WithDefaults.
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Finds an attribute by name.
  const Attribute* FindAttribute(const std::string& name) const;

  /// The visualization dimension = number of location attributes (§2).
  size_t Dimension() const { return location_names_.size(); }

  /// Location attribute names in dimension order: x, y, then sliders.
  const std::vector<std::string>& location_names() const { return location_names_; }

  /// Name of the active display attribute.
  const std::string& display_name() const { return display_name_; }

  /// Names of every display-typed attribute (the active one plus the
  /// "multiple display attributes defining multiple, alternative
  /// representations" of §2).
  std::vector<std::string> AlternativeDisplays() const;

  const ElevationRange& elevation_range() const { return elevation_range_; }

  // ---- Attribute evaluation ----

  /// Evaluates attribute `name` for base row `row`. Computed attributes may
  /// reference other attributes; reference cycles are detected and reported.
  Result<types::Value> AttributeValue(size_t row, const std::string& name) const;

  /// Evaluates attribute `name` for every base row at once — the batch
  /// "method" path. Stored and expression attributes run through the
  /// expr::BatchEvaluator over the base relation's columnar view (with
  /// Scale/Translate transforms applied vectorized); combine/default-display
  /// attributes fall back to per-row evaluation. Element r is bit-identical
  /// to AttributeValue(r, name). `policy` selects scalar vs vectorized
  /// evaluation and never changes the produced values.
  Result<std::vector<types::Value>> AttributeValues(
      const std::string& name,
      const db::ExecPolicy& policy = db::DefaultExecPolicy()) const;

  /// The tuple's position in n-space: one double per location dimension.
  /// Null or non-numeric locations are an error.
  Result<std::vector<double>> LocationOf(size_t row) const;

  /// The tuple's active display list.
  Result<draw::DrawableList> DisplayOf(size_t row) const;

  // ---- Editing operations (Figure 5) ----
  // Each returns a modified copy; `this` is unchanged.

  /// Add Attribute: defines a new computed attribute from an expression over
  /// existing attributes.
  Result<DisplayRelation> AddAttribute(const std::string& name,
                                       const std::string& definition) const;

  /// Set Attribute: redefines an attribute. A stored attribute becomes
  /// computed (the stored column is shadowed).
  Result<DisplayRelation> SetAttribute(const std::string& name,
                                       const std::string& definition) const;

  /// Remove Attribute: "cannot remove attributes x, y, or display" — i.e.
  /// any designated location dimension or the active display.
  Result<DisplayRelation> RemoveAttribute(const std::string& name) const;

  /// Swap Attributes: interchanges two attributes of the same type by
  /// exchanging their names ("rotating the canvas" when both are location
  /// dimensions, switching visualization when one is the active display).
  Result<DisplayRelation> SwapAttributes(const std::string& a,
                                         const std::string& b) const;

  /// Scale Attribute: numeric only.
  Result<DisplayRelation> ScaleAttribute(const std::string& name, double factor) const;

  /// Translate Attribute: numeric only.
  Result<DisplayRelation> TranslateAttribute(const std::string& name,
                                             double delta) const;

  /// Combine Displays: a new display attribute drawing `first` then `second`
  /// offset by (dx, dy).
  Result<DisplayRelation> CombineDisplays(const std::string& new_name,
                                          const std::string& first,
                                          const std::string& second, double dx,
                                          double dy) const;

  // ---- Designation operations ----

  /// Binds location dimension `dim` (0 = x, 1 = y, 2+ = sliders) to the
  /// numeric attribute `attr`.
  Result<DisplayRelation> SetLocationAttribute(size_t dim, const std::string& attr) const;

  /// Appends a new slider dimension bound to `attr` ("adding a location
  /// attribute adds a new dimension to the visualization", §5.3).
  Result<DisplayRelation> AddLocationDimension(const std::string& attr) const;

  /// Drops slider dimension `dim` (>= 2; x and y are mandatory).
  Result<DisplayRelation> RemoveLocationDimension(size_t dim) const;

  /// Makes `attr` (display-typed) the active display.
  Result<DisplayRelation> SetDisplayAttribute(const std::string& attr) const;

  /// Set Range (§6.1): elevations at which this relation is visible.
  DisplayRelation SetElevationRange(double min, double max) const;

  // ---- Relational operations over the extended relation ----

  /// Restrict: predicate over all (stored and computed) attributes.
  /// `policy` selects scalar vs vectorized predicate evaluation; the output
  /// bytes are identical either way.
  Result<DisplayRelation> Restrict(
      const std::string& predicate,
      const db::ExecPolicy& policy = db::DefaultExecPolicy()) const;

  /// Number of base rows in [0, end) kept by `predicate` — used by the
  /// Restrict delta fast path to locate where an edited tuple lands in the
  /// output without recomputing the full restriction. Agrees exactly with
  /// Restrict's keep set (null predicate values drop the row).
  Result<size_t> CountKept(
      const std::string& predicate, size_t end,
      const db::ExecPolicy& policy = db::DefaultExecPolicy()) const;

  /// Whether `predicate` keeps base row `row`, with Restrict's exact
  /// semantics (null → dropped).
  Result<bool> KeepsRow(const std::string& predicate, size_t row) const;

  /// Project: keeps only the named stored columns. Computed attributes whose
  /// definitions reference dropped columns cause an error naming the
  /// offender.
  Result<DisplayRelation> Project(const std::vector<std::string>& columns) const;

  /// Sample: Bernoulli over base rows; computed attributes are preserved.
  Result<DisplayRelation> Sample(double probability, uint64_t seed) const;

  /// Replaces the base relation with one of identical schema (used when a
  /// §8 update installs new values).
  Result<DisplayRelation> WithBase(db::RelationPtr base) const;

  /// TypeEnv over all attributes of this relation (stored attributes resolve
  /// to stored indices; computed attributes resolve by name).
  expr::TypeEnv Env() const;

  /// Renders as a table including computed attribute values (debugging).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Result<size_t> AttributeIndex(const std::string& name) const;

  std::string name_;
  db::RelationPtr base_;
  std::vector<Attribute> attributes_;
  std::vector<std::string> location_names_;
  std::string display_name_;
  ElevationRange elevation_range_;
};

/// Evaluates a DisplayRelation's location and active display attributes over
/// row selections through the batch path: the ranged counterpart of
/// AttributeValues, for callers that walk a relation one slice of rows at a
/// time (the renderer). One evaluator serves the whole walk, so a
/// transformed stored column materializes once rather than once per slice.
/// Evaluation runs on the calling thread. `relation` must outlive it.
///
/// A method returning an error means some row of the selection failed to
/// evaluate, or the attribute has no batch form; the caller then takes the
/// per-row LocationOf / DisplayOf path for that selection, which reports
/// each row's own error.
class SliceEvaluator {
 public:
  SliceEvaluator(const DisplayRelation& relation, const db::ExecPolicy& policy);
  ~SliceEvaluator();

  SliceEvaluator(const SliceEvaluator&) = delete;
  SliceEvaluator& operator=(const SliceEvaluator&) = delete;

  /// Location dimension `dim` for the rows of `sel`: (*values)[k] belongs to
  /// row sel[k]. Clears (*valid)[k] where LocationOf(sel[k]) rejects the
  /// value as null or non-numeric; entries already cleared stay cleared.
  /// `valid` must hold sel.size() entries.
  Status Location(size_t dim, const expr::Selection& sel, std::vector<double>* values,
                  std::vector<uint8_t>* valid);

  /// Whether the active display attribute has a batch form. Combine and
  /// default displays have none; callers take DisplayOf per row for them.
  bool DisplayBatchable() const;

  /// The active display attribute for the rows of `sel`: element k is
  /// value-identical to AttributeValue(sel[k], display_name()). The result
  /// may borrow `sel`, which must outlive it.
  Result<expr::Vec> Displays(const expr::Selection& sel);

 private:
  struct Impl;
  const DisplayRelation& relation_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tioga2::display

#endif  // TIOGA2_DISPLAY_DISPLAY_RELATION_H_
