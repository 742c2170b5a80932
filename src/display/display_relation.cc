#include "display/display_relation.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "db/morsel.h"
#include "db/operators.h"
#include "expr/batch.h"

namespace tioga2::display {

using types::DataType;
using types::Value;

namespace {

/// Width in world units of the default text rendering (§5.2).
constexpr double kDefaultTextHeight = 10.0;

/// Applies an attribute's accumulated Scale/Translate transform to one
/// value: identity transforms return the value untouched (preserving its
/// runtime type), anything else produces Float(v * scale + translate).
Result<Value> ApplyTransform(const Attribute& attr, Value v) {
  if (attr.scale == 1.0 && attr.translate == 0.0) return v;
  if (v.is_null()) return v;
  if (!v.is_int() && !v.is_float()) {
    return Status::TypeError("Scale/Translate applied to non-numeric attribute '" +
                             attr.name + "'");
  }
  return Value::Float(v.AsDouble() * attr.scale + attr.translate);
}

/// RowAccessor over one tuple of a DisplayRelation: stored attributes read
/// the base tuple (with Scale/Translate transforms applied), computed
/// attributes evaluate their definitions recursively with memoization and
/// cycle detection.
class DisplayRowAccessor : public expr::RowAccessor {
 public:
  DisplayRowAccessor(const DisplayRelation& relation, size_t row)
      : relation_(relation), row_(row) {}

  Result<Value> GetStored(size_t index) const override {
    if (row_ >= relation_.base()->num_rows() ||
        index >= relation_.base()->schema()->num_columns()) {
      return Status::Internal("stored attribute access out of range");
    }
    Value v = relation_.base()->at(row_, index);
    // Apply the stored column's Scale/Translate transform, if any.
    for (const Attribute& attr : relation_.attributes()) {
      if (attr.source == AttrSource::kStored && attr.stored_index == index) {
        return ApplyTransform(attr, std::move(v));
      }
    }
    return v;
  }

  Result<Value> GetNamed(const std::string& name) const override {
    auto cached = memo_.find(name);
    if (cached != memo_.end()) return cached->second;
    const Attribute* attr = relation_.FindAttribute(name);
    if (attr == nullptr) {
      return Status::NotFound("no attribute '" + name + "' on relation '" +
                              relation_.name() + "'");
    }
    if (!in_progress_.insert(name).second) {
      return Status::FailedPrecondition("attribute '" + name +
                                        "' has a cyclic definition");
    }
    Result<Value> result = EvalAttribute(*attr);
    in_progress_.erase(name);
    if (result.ok()) memo_.emplace(name, result.value());
    return result;
  }

 private:
  Result<Value> EvalAttribute(const Attribute& attr) const {
    switch (attr.source) {
      case AttrSource::kStored:
        // GetStored applies the transform itself.
        return GetStored(attr.stored_index);
      case AttrSource::kExpr: {
        TIOGA2_ASSIGN_OR_RETURN(Value v, attr.definition->Eval(*this));
        return ApplyTransform(attr, std::move(v));
      }
      case AttrSource::kCombine: {
        TIOGA2_ASSIGN_OR_RETURN(Value first, GetNamed(attr.combine_first));
        TIOGA2_ASSIGN_OR_RETURN(Value second, GetNamed(attr.combine_second));
        if (first.is_null() || second.is_null()) return Value::Null();
        if (!first.is_display() || !second.is_display()) {
          return Status::TypeError("Combine Displays needs display attributes");
        }
        return Value::Display(draw::CombineDrawableLists(
            first.display_value(), second.display_value(), attr.combine_dx,
            attr.combine_dy));
      }
      case AttrSource::kRowNumber:
        return ApplyTransform(attr, Value::Float(static_cast<double>(row_)));
      case AttrSource::kDefaultDisplay: {
        // Render each stored field side by side using its textual form —
        // the "terminal monitor" default of §5.2.
        std::vector<draw::Drawable> drawables;
        double x = 0;
        const db::Schema& schema = *relation_.base()->schema();
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          std::string cell = relation_.base()->at(row_, c).ToString();
          draw::Drawable t = draw::MakeText(cell, kDefaultTextHeight);
          t.offset_x = x;
          x += 0.6 * kDefaultTextHeight * static_cast<double>(cell.size()) +
               kDefaultTextHeight;
          drawables.push_back(std::move(t));
        }
        return Value::Display(draw::MakeDrawableList(std::move(drawables)));
      }
    }
    return Status::Internal("unhandled attribute source");
  }

  const DisplayRelation& relation_;
  size_t row_;
  mutable std::unordered_map<std::string, Value> memo_;
  mutable std::unordered_set<std::string> in_progress_;
};

/// BatchSource over a DisplayRelation: stored attributes come from the base
/// relation's columnar view, with Scale/Translate transforms materialized
/// into owned float columns on first use; computed attributes fall back to
/// the per-row DisplayRowAccessor. The per-row fallback builds a fresh
/// accessor per row, so its memo does not span attributes the way the
/// scalar Restrict accessor's does — values are identical, only repeated
/// references re-evaluate.
class DisplayBatchSource : public expr::BatchSource {
 public:
  /// `relation` must outlive the source.
  explicit DisplayBatchSource(const DisplayRelation& relation) : relation_(relation) {}

  size_t num_rows() const override { return relation_.num_rows(); }

  const db::ColumnVector* StoredColumn(size_t index) const override {
    const Attribute* transform = nullptr;
    for (const Attribute& attr : relation_.attributes()) {
      if (attr.source == AttrSource::kStored && attr.stored_index == index &&
          !(attr.scale == 1.0 && attr.translate == 0.0)) {
        transform = &attr;
        break;
      }
    }
    const db::ColumnVector& base = relation_.base()->columnar().column(index);
    if (transform == nullptr) return &base;
    if (base.type != DataType::kInt && base.type != DataType::kFloat) {
      return nullptr;  // the per-row path reports the TypeError
    }
    // Morsel workers share one source so the transform materializes once:
    // the first caller builds the column under the lock, later callers reuse
    // it. The returned pointer stays stable (unique_ptr in the map).
    std::lock_guard<std::mutex> lock(transform_mu_);
    auto it = transformed_.find(index);
    if (it != transformed_.end()) return it->second.get();
    auto col = std::make_unique<db::ColumnVector>();
    col->type = DataType::kFloat;
    col->num_rows = base.num_rows;
    col->null_bits = base.null_bits;
    col->floats.resize(base.num_rows);
    for (size_t r = 0; r < base.num_rows; ++r) {
      if (base.IsNull(r)) continue;
      double v = base.type == DataType::kInt ? static_cast<double>(base.ints[r])
                                             : base.floats[r];
      col->floats[r] = v * transform->scale + transform->translate;
    }
    return transformed_.emplace(index, std::move(col)).first->second.get();
  }

  Result<Value> StoredAt(size_t index, size_t row) const override {
    DisplayRowAccessor accessor(relation_, row);
    return accessor.GetStored(index);
  }

  Result<Value> NamedAt(const std::string& name, size_t row) const override {
    DisplayRowAccessor accessor(relation_, row);
    return accessor.GetNamed(name);
  }

  const expr::ExprNode* NamedExpr(const std::string& name) const override {
    // Only plain-expression attributes with an identity transform expand as
    // vectors: ApplyTransform is the identity for them, so recursing into
    // the definition yields exactly the per-row accessor's value. Combine /
    // row-number / default-display attributes keep the per-row path.
    const Attribute* attr = relation_.FindAttribute(name);
    if (attr == nullptr || attr->source != AttrSource::kExpr ||
        !attr->definition.has_value() ||
        !(attr->scale == 1.0 && attr->translate == 0.0)) {
      return nullptr;
    }
    return &attr->definition->root();
  }

 private:
  const DisplayRelation& relation_;
  mutable std::mutex transform_mu_;
  mutable std::unordered_map<size_t, std::unique_ptr<db::ColumnVector>> transformed_;
};

}  // namespace

Result<DisplayRelation> DisplayRelation::WithDefaults(std::string name,
                                                      db::RelationPtr base) {
  if (base == nullptr) return Status::InvalidArgument("base relation must be non-null");
  DisplayRelation rel;
  rel.name_ = std::move(name);
  rel.base_ = std::move(base);
  const db::Schema& schema = *rel.base_->schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    Attribute attr;
    attr.name = schema.column(c).name;
    attr.type = schema.column(c).type;
    attr.source = AttrSource::kStored;
    attr.stored_index = c;
    rel.attributes_.push_back(std::move(attr));
  }
  // Default location: x = 0, y = tuple sequence number (§5.2).
  if (schema.HasColumn("_x") || schema.HasColumn("_y") || schema.HasColumn("_display")) {
    return Status::InvalidArgument(
        "column names _x, _y, _display are reserved for defaults");
  }
  {
    Attribute x;
    x.name = "_x";
    x.type = DataType::kFloat;
    x.source = AttrSource::kExpr;
    TIOGA2_ASSIGN_OR_RETURN(x.definition, expr::CompiledExpr::Compile(
                                              "0.0", [](const std::string&) {
                                                return std::optional<expr::AttrInfo>();
                                              }));
    rel.attributes_.push_back(std::move(x));
  }
  {
    Attribute y;
    y.name = "_y";
    y.type = DataType::kFloat;
    y.source = AttrSource::kRowNumber;
    rel.attributes_.push_back(std::move(y));
  }
  {
    Attribute d;
    d.name = "_display";
    d.type = DataType::kDisplay;
    d.source = AttrSource::kDefaultDisplay;
    rel.attributes_.push_back(std::move(d));
  }
  rel.location_names_ = {"_x", "_y"};
  rel.display_name_ = "_display";
  return rel;
}

const Attribute* DisplayRelation::FindAttribute(const std::string& name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return &attr;
  }
  return nullptr;
}

Result<size_t> DisplayRelation::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute '" + name + "' on relation '" + name_ + "'");
}

std::vector<std::string> DisplayRelation::AlternativeDisplays() const {
  std::vector<std::string> names;
  for (const Attribute& attr : attributes_) {
    if (attr.type == DataType::kDisplay) names.push_back(attr.name);
  }
  return names;
}

Result<Value> DisplayRelation::AttributeValue(size_t row, const std::string& name) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  DisplayRowAccessor accessor(*this, row);
  return accessor.GetNamed(name);
}

Result<std::vector<Value>> DisplayRelation::AttributeValues(
    const std::string& name, const db::ExecPolicy& policy) const {
  const Attribute* attr = FindAttribute(name);
  if (attr == nullptr) {
    return Status::NotFound("no attribute '" + name + "' on relation '" + name_ + "'");
  }
  const size_t n = num_rows();
  std::vector<Value> out;
  out.reserve(n);
  if (policy.vectorized) {
    expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
    if (attr->source == AttrSource::kRowNumber) {
      ++metrics.display_attr_batches;
      metrics.display_attr_rows += n;
      for (size_t r = 0; r < n; ++r) {
        TIOGA2_ASSIGN_OR_RETURN(
            Value v, ApplyTransform(*attr, Value::Float(static_cast<double>(r))));
        out.push_back(std::move(v));
      }
      return out;
    }
    if (attr->source == AttrSource::kStored) {
      DisplayBatchSource source(*this);
      // StoredColumn applies the Scale/Translate transform; nullptr means a
      // transformed non-numeric column, whose TypeError the per-row path
      // below reports.
      const db::ColumnVector* col = source.StoredColumn(attr->stored_index);
      if (col != nullptr) {
        ++metrics.display_attr_batches;
        metrics.display_attr_rows += n;
        for (size_t r = 0; r < n; ++r) out.push_back(col->ValueAt(r));
        return out;
      }
    }
    if (attr->source == AttrSource::kExpr) {
      ++metrics.display_attr_batches;
      metrics.display_attr_rows += n;
      // Morsels share one source (its transform cache is mutex-guarded) but
      // each gets its own evaluator; results land in preassigned slots, so
      // the merged vector is byte-identical to the serial sweep.
      DisplayBatchSource source(*this);
      std::vector<Value> slots(n);
      TIOGA2_RETURN_IF_ERROR(db::ForEachMorsel(
          policy, n, [&](size_t, size_t begin, size_t end) -> Status {
            expr::BatchEvaluator evaluator(source, policy);
            expr::Selection sel;
            for (size_t b = begin; b < end; b += expr::kBatchSize) {
              const size_t bend = std::min(b + expr::kBatchSize, end);
              expr::IdentitySelection(b, bend, &sel);
              TIOGA2_ASSIGN_OR_RETURN(
                  expr::Vec vec, evaluator.Eval(attr->definition->root(), sel));
              for (size_t k = 0; k < sel.size(); ++k) {
                TIOGA2_ASSIGN_OR_RETURN(Value v,
                                        ApplyTransform(*attr, vec.ValueAt(k)));
                slots[sel[k]] = std::move(v);
              }
            }
            metrics.nodes_vectorized += evaluator.stats().vectorized_nodes;
            metrics.nodes_fallback += evaluator.stats().fallback_nodes;
            return Status::OK();
          }));
      return slots;
    }
  }
  // Per-row fallback (kCombine, kDefaultDisplay, transformed non-numeric
  // stored columns). Rows are independent, so they fan out in morsels into
  // preassigned slots; with `vectorized` false ForEachMorsel stays serial,
  // keeping the scalar oracle strictly sequential.
  std::vector<Value> slots(n);
  TIOGA2_RETURN_IF_ERROR(db::ForEachMorsel(
      policy, n, [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          TIOGA2_ASSIGN_OR_RETURN(Value v, AttributeValue(r, name));
          slots[r] = std::move(v);
        }
        return Status::OK();
      }));
  return slots;
}

Result<std::vector<double>> DisplayRelation::LocationOf(size_t row) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  DisplayRowAccessor accessor(*this, row);
  std::vector<double> location;
  location.reserve(location_names_.size());
  for (const std::string& name : location_names_) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, accessor.GetNamed(name));
    if (v.is_null()) {
      return Status::InvalidArgument("location attribute '" + name + "' is null at row " +
                                     std::to_string(row));
    }
    if (!v.is_int() && !v.is_float()) {
      return Status::TypeError("location attribute '" + name + "' is not numeric");
    }
    location.push_back(v.AsDouble());
  }
  return location;
}

Result<draw::DrawableList> DisplayRelation::DisplayOf(size_t row) const {
  TIOGA2_ASSIGN_OR_RETURN(Value v, AttributeValue(row, display_name_));
  if (v.is_null()) return draw::MakeDrawableList({});
  if (!v.is_display()) {
    return Status::TypeError("display attribute '" + display_name_ +
                             "' did not produce a display value");
  }
  return v.display_value();
}

namespace {

/// `v` as a location coordinate; false where LocationOf rejects it (null or
/// non-numeric).
bool NumericValue(const Value& v, double* out) {
  if (!v.is_int() && !v.is_float()) return false;
  *out = v.AsDouble();
  return true;
}

/// Row `row` of `column` as a location coordinate, without boxing.
bool NumericCell(const db::ColumnVector& column, size_t row, double* out) {
  if (column.IsNull(row)) return false;
  if (column.type == DataType::kInt) {
    *out = static_cast<double>(column.ints[row]);
    return true;
  }
  if (column.type == DataType::kFloat) {
    *out = column.floats[row];
    return true;
  }
  return false;
}

/// Element k of `v` as a location coordinate, without boxing typed vectors.
bool NumericAt(const expr::Vec& v, size_t k, double* out) {
  switch (v.rep) {
    case expr::Vec::Rep::kConst:
      return NumericValue(v.cval, out);
    case expr::Vec::Rep::kView:
      return NumericCell(*v.view, (*v.view_sel)[k], out);
    case expr::Vec::Rep::kOwned:
      break;
  }
  if (v.is_boxed()) return NumericValue(v.boxed[k], out);
  if (v.IsNull(k)) return false;
  if (v.type == DataType::kInt) {
    *out = static_cast<double>(v.ints[k]);
    return true;
  }
  if (v.type == DataType::kFloat) {
    *out = v.floats[k];
    return true;
  }
  return false;
}

bool IdentityTransform(const Attribute& attr) {
  return attr.scale == 1.0 && attr.translate == 0.0;
}

}  // namespace

struct SliceEvaluator::Impl {
  Impl(const DisplayRelation& relation, const db::ExecPolicy& policy)
      : source(relation), evaluator(source, policy) {}

  DisplayBatchSource source;
  expr::BatchEvaluator evaluator;
};

SliceEvaluator::SliceEvaluator(const DisplayRelation& relation,
                               const db::ExecPolicy& policy)
    : relation_(relation), impl_(std::make_unique<Impl>(relation, policy)) {}

SliceEvaluator::~SliceEvaluator() {
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  metrics.nodes_vectorized += impl_->evaluator.stats().vectorized_nodes;
  metrics.nodes_fallback += impl_->evaluator.stats().fallback_nodes;
}

Status SliceEvaluator::Location(size_t dim, const expr::Selection& sel,
                                std::vector<double>* values,
                                std::vector<uint8_t>* valid) {
  if (dim >= relation_.location_names().size()) {
    return Status::OutOfRange("location dimension " + std::to_string(dim) +
                              " out of range");
  }
  const std::string& name = relation_.location_names()[dim];
  const Attribute* attr = relation_.FindAttribute(name);
  if (attr == nullptr) {
    return Status::NotFound("no attribute '" + name + "' on relation '" +
                            relation_.name() + "'");
  }
  const size_t n = sel.size();
  values->resize(n);
  double* out = values->data();
  uint8_t* ok = valid->data();
  switch (attr->source) {
    case AttrSource::kStored: {
      // StoredColumn applies the Scale/Translate transform; nullptr means a
      // transformed non-numeric column, whose TypeError LocationOf reports.
      const db::ColumnVector* column = impl_->source.StoredColumn(attr->stored_index);
      if (column == nullptr) {
        return Status::TypeError("location attribute '" + name + "' is not numeric");
      }
      for (size_t k = 0; k < n; ++k) {
        if (!NumericCell(*column, sel[k], &out[k])) ok[k] = 0;
      }
      break;
    }
    case AttrSource::kRowNumber:
      for (size_t k = 0; k < n; ++k) {
        TIOGA2_ASSIGN_OR_RETURN(
            Value v, ApplyTransform(*attr, Value::Float(static_cast<double>(sel[k]))));
        out[k] = v.AsDouble();
      }
      break;
    case AttrSource::kExpr: {
      TIOGA2_ASSIGN_OR_RETURN(expr::Vec vec,
                              impl_->evaluator.Eval(attr->definition->root(), sel));
      const bool identity = IdentityTransform(*attr);
      for (size_t k = 0; k < n; ++k) {
        if (identity) {
          if (!NumericAt(vec, k, &out[k])) ok[k] = 0;
          continue;
        }
        // A transform of a non-numeric value is LocationOf's TypeError.
        Result<Value> v = ApplyTransform(*attr, vec.ValueAt(k));
        if (!v.ok() || !NumericValue(v.value(), &out[k])) ok[k] = 0;
      }
      break;
    }
    case AttrSource::kCombine:
    case AttrSource::kDefaultDisplay:
      return Status::TypeError("location attribute '" + name + "' is not numeric");
  }
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  ++metrics.display_attr_batches;
  metrics.display_attr_rows += n;
  return Status::OK();
}

bool SliceEvaluator::DisplayBatchable() const {
  const Attribute* attr = relation_.FindAttribute(relation_.display_name());
  return attr != nullptr && attr->source == AttrSource::kExpr &&
         attr->definition.has_value() && IdentityTransform(*attr);
}

Result<expr::Vec> SliceEvaluator::Displays(const expr::Selection& sel) {
  if (!DisplayBatchable()) {
    return Status::FailedPrecondition("display attribute '" + relation_.display_name() +
                                      "' has no batch form");
  }
  const Attribute* attr = relation_.FindAttribute(relation_.display_name());
  expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
  ++metrics.display_attr_batches;
  metrics.display_attr_rows += sel.size();
  return impl_->evaluator.Eval(attr->definition->root(), sel);
}

expr::TypeEnv DisplayRelation::Env() const {
  // Snapshot the attribute table; the env outlives `this` inside boxes.
  std::vector<Attribute> attrs = attributes_;
  return [attrs](const std::string& name) -> std::optional<expr::AttrInfo> {
    for (const Attribute& attr : attrs) {
      if (attr.name != name) continue;
      // Attributes with a transform must be fetched by name so the
      // transform applies even through an analyzer-resolved reference.
      if (attr.source == AttrSource::kStored) {
        return expr::AttrInfo{attr.type, attr.stored_index};
      }
      return expr::AttrInfo{attr.type, std::nullopt};
    }
    return std::nullopt;
  };
}

Result<DisplayRelation> DisplayRelation::AddAttribute(const std::string& name,
                                                      const std::string& definition) const {
  if (FindAttribute(name) != nullptr) {
    return Status::AlreadyExists("attribute '" + name + "' already exists");
  }
  if (name.empty()) return Status::InvalidArgument("attribute name must be non-empty");
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(definition, Env()));
  DisplayRelation out = *this;
  Attribute attr;
  attr.name = name;
  attr.type = compiled.result_type();
  attr.source = AttrSource::kExpr;
  attr.definition = std::move(compiled);
  out.attributes_.push_back(std::move(attr));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetAttribute(const std::string& name,
                                                      const std::string& definition) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(definition, Env()));
  DisplayRelation out = *this;
  Attribute& attr = out.attributes_[index];
  // A location dimension or the active display must keep a compatible type.
  bool is_location =
      std::find(location_names_.begin(), location_names_.end(), name) !=
      location_names_.end();
  if (is_location && !types::IsNumericType(compiled.result_type())) {
    return Status::TypeError("location attribute '" + name + "' must stay numeric");
  }
  if (name == display_name_ && compiled.result_type() != DataType::kDisplay) {
    return Status::TypeError("active display attribute '" + name +
                             "' must stay display-typed");
  }
  attr.type = compiled.result_type();
  attr.source = AttrSource::kExpr;
  attr.definition = std::move(compiled);
  attr.scale = 1.0;
  attr.translate = 0.0;
  return out;
}

Result<DisplayRelation> DisplayRelation::RemoveAttribute(const std::string& name) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (std::find(location_names_.begin(), location_names_.end(), name) !=
      location_names_.end()) {
    return Status::FailedPrecondition("cannot remove location attribute '" + name +
                                      "' (x, y, and slider dimensions are protected)");
  }
  if (name == display_name_) {
    return Status::FailedPrecondition("cannot remove the active display attribute '" +
                                      name + "'");
  }
  // Refuse if another attribute's definition references it.
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) continue;
    if (attr.source == AttrSource::kExpr) {
      std::vector<std::string> refs = expr::CollectAttributeRefs(attr.definition->root());
      if (std::find(refs.begin(), refs.end(), name) != refs.end()) {
        return Status::FailedPrecondition("attribute '" + attr.name + "' references '" +
                                          name + "'");
      }
    }
    if (attr.source == AttrSource::kCombine &&
        (attr.combine_first == name || attr.combine_second == name)) {
      return Status::FailedPrecondition("attribute '" + attr.name + "' combines '" +
                                        name + "'");
    }
  }
  DisplayRelation out = *this;
  out.attributes_.erase(out.attributes_.begin() + static_cast<ptrdiff_t>(index));
  return out;
}

Result<DisplayRelation> DisplayRelation::SwapAttributes(const std::string& a,
                                                        const std::string& b) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t ia, AttributeIndex(a));
  TIOGA2_ASSIGN_OR_RETURN(size_t ib, AttributeIndex(b));
  if (attributes_[ia].type != attributes_[ib].type) {
    return Status::TypeError("Swap Attributes needs two attributes of the same type (" +
                             types::DataTypeToString(attributes_[ia].type) + " vs " +
                             types::DataTypeToString(attributes_[ib].type) + ")");
  }
  DisplayRelation out = *this;
  std::swap(out.attributes_[ia].name, out.attributes_[ib].name);
  return out;
}

Result<DisplayRelation> DisplayRelation::ScaleAttribute(const std::string& name,
                                                        double factor) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (!types::IsNumericType(attributes_[index].type)) {
    return Status::TypeError("Scale Attribute needs a numeric attribute, '" + name +
                             "' is " + types::DataTypeToString(attributes_[index].type));
  }
  DisplayRelation out = *this;
  out.attributes_[index].scale *= factor;
  out.attributes_[index].translate *= factor;
  out.attributes_[index].type = DataType::kFloat;
  return out;
}

Result<DisplayRelation> DisplayRelation::TranslateAttribute(const std::string& name,
                                                            double delta) const {
  TIOGA2_ASSIGN_OR_RETURN(size_t index, AttributeIndex(name));
  if (!types::IsNumericType(attributes_[index].type)) {
    return Status::TypeError("Translate Attribute needs a numeric attribute, '" + name +
                             "' is " + types::DataTypeToString(attributes_[index].type));
  }
  DisplayRelation out = *this;
  out.attributes_[index].translate += delta;
  out.attributes_[index].type = DataType::kFloat;
  return out;
}

Result<DisplayRelation> DisplayRelation::CombineDisplays(const std::string& new_name,
                                                         const std::string& first,
                                                         const std::string& second,
                                                         double dx, double dy) const {
  if (FindAttribute(new_name) != nullptr) {
    return Status::AlreadyExists("attribute '" + new_name + "' already exists");
  }
  const Attribute* a = FindAttribute(first);
  const Attribute* b = FindAttribute(second);
  if (a == nullptr) return Status::NotFound("no attribute '" + first + "'");
  if (b == nullptr) return Status::NotFound("no attribute '" + second + "'");
  if (a->type != DataType::kDisplay || b->type != DataType::kDisplay) {
    return Status::TypeError("Combine Displays needs two display attributes");
  }
  DisplayRelation out = *this;
  Attribute attr;
  attr.name = new_name;
  attr.type = DataType::kDisplay;
  attr.source = AttrSource::kCombine;
  attr.combine_first = first;
  attr.combine_second = second;
  attr.combine_dx = dx;
  attr.combine_dy = dy;
  out.attributes_.push_back(std::move(attr));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetLocationAttribute(
    size_t dim, const std::string& attr) const {
  if (dim >= location_names_.size()) {
    return Status::OutOfRange("location dimension " + std::to_string(dim) +
                              " out of range (dimension is " +
                              std::to_string(location_names_.size()) + ")");
  }
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (!types::IsNumericType(a->type)) {
    return Status::TypeError("location attribute '" + attr + "' must be numeric");
  }
  DisplayRelation out = *this;
  out.location_names_[dim] = attr;
  return out;
}

Result<DisplayRelation> DisplayRelation::AddLocationDimension(
    const std::string& attr) const {
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (!types::IsNumericType(a->type)) {
    return Status::TypeError("location attribute '" + attr + "' must be numeric");
  }
  DisplayRelation out = *this;
  out.location_names_.push_back(attr);
  return out;
}

Result<DisplayRelation> DisplayRelation::RemoveLocationDimension(size_t dim) const {
  if (dim < 2) {
    return Status::FailedPrecondition(
        "the x and y dimensions are mandatory (every visualization has at least two "
        "dimensions, §2)");
  }
  if (dim >= location_names_.size()) {
    return Status::OutOfRange("location dimension " + std::to_string(dim) +
                              " out of range");
  }
  DisplayRelation out = *this;
  out.location_names_.erase(out.location_names_.begin() + static_cast<ptrdiff_t>(dim));
  return out;
}

Result<DisplayRelation> DisplayRelation::SetDisplayAttribute(
    const std::string& attr) const {
  const Attribute* a = FindAttribute(attr);
  if (a == nullptr) return Status::NotFound("no attribute '" + attr + "'");
  if (a->type != DataType::kDisplay) {
    return Status::TypeError("attribute '" + attr + "' is not display-typed");
  }
  DisplayRelation out = *this;
  out.display_name_ = attr;
  return out;
}

DisplayRelation DisplayRelation::SetElevationRange(double min, double max) const {
  DisplayRelation out = *this;
  if (min > max) std::swap(min, max);
  out.elevation_range_ = ElevationRange{min, max};
  return out;
}

Result<DisplayRelation> DisplayRelation::Restrict(
    const std::string& predicate, const db::ExecPolicy& policy) const {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("Restrict predicate '" + predicate + "' must be bool");
  }
  DisplayRelation out = *this;
  if (policy.vectorized) {
    expr::BatchMetrics& metrics = expr::BatchMetrics::Global();
    metrics.restrict_rows += num_rows();
    // Morsel-driven, like db::Restrict: per-morsel survivor lists merged in
    // morsel order reproduce the serial scan byte for byte.
    DisplayBatchSource source(*this);
    const size_t num_morsels = db::NumMorsels(policy, num_rows());
    std::vector<expr::Selection> survivors(num_morsels);
    TIOGA2_RETURN_IF_ERROR(db::ForEachMorsel(
        policy, num_rows(),
        [&](size_t morsel, size_t begin, size_t end) -> Status {
          expr::BatchEvaluator evaluator(source, policy);
          expr::Selection sel;
          expr::Selection& kept_rows = survivors[morsel];
          for (size_t b = begin; b < end; b += expr::kBatchSize) {
            const size_t bend = std::min(b + expr::kBatchSize, end);
            expr::IdentitySelection(b, bend, &sel);
            TIOGA2_ASSIGN_OR_RETURN(expr::Selection kept,
                                    evaluator.FilterTrue(compiled.root(), sel));
            kept_rows.insert(kept_rows.end(), kept.begin(), kept.end());
            ++metrics.restrict_batches;
          }
          metrics.nodes_vectorized += evaluator.stats().vectorized_nodes;
          metrics.nodes_fallback += evaluator.stats().fallback_nodes;
          return Status::OK();
        }));
    size_t total = 0;
    for (const expr::Selection& s : survivors) total += s.size();
    expr::Selection merged;
    merged.reserve(total);
    for (expr::Selection& s : survivors) {
      merged.insert(merged.end(), s.begin(), s.end());
    }
    // Survivors reference the base relation through a selection view — no
    // tuple copies (the tuple-copy tax dominated restrict_half_selectivity
    // in bench_out/fig03_columnar.json before this).
    out.base_ = db::Relation::MakeSelectionView(base_, std::move(merged));
  } else {
    db::RelationBuilder builder(base_->schema());
    for (size_t r = 0; r < num_rows(); ++r) {
      DisplayRowAccessor accessor(*this, r);
      TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
      if (!keep.is_null() && keep.bool_value()) builder.AddRowShared(base_->row_ptr(r));
    }
    out.base_ = builder.Build();
  }
  return out;
}

Result<size_t> DisplayRelation::CountKept(const std::string& predicate,
                                          size_t end,
                                          const db::ExecPolicy& policy) const {
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("predicate '" + predicate + "' must be bool");
  }
  end = std::min(end, num_rows());
  size_t count = 0;
  if (policy.vectorized) {
    DisplayBatchSource source(*this);
    std::vector<size_t> counts(db::NumMorsels(policy, end));
    TIOGA2_RETURN_IF_ERROR(db::ForEachMorsel(
        policy, end,
        [&](size_t morsel, size_t mbegin, size_t mend) -> Status {
          expr::BatchEvaluator evaluator(source, policy);
          expr::Selection sel;
          size_t kept_in_morsel = 0;
          for (size_t b = mbegin; b < mend; b += expr::kBatchSize) {
            const size_t bend = std::min(b + expr::kBatchSize, mend);
            expr::IdentitySelection(b, bend, &sel);
            TIOGA2_ASSIGN_OR_RETURN(expr::Selection kept,
                                    evaluator.FilterTrue(compiled.root(), sel));
            kept_in_morsel += kept.size();
          }
          counts[morsel] = kept_in_morsel;
          return Status::OK();
        }));
    for (size_t c : counts) count += c;
  } else {
    for (size_t r = 0; r < end; ++r) {
      DisplayRowAccessor accessor(*this, r);
      TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
      if (!keep.is_null() && keep.bool_value()) ++count;
    }
  }
  return count;
}

Result<bool> DisplayRelation::KeepsRow(const std::string& predicate,
                                       size_t row) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  TIOGA2_ASSIGN_OR_RETURN(expr::CompiledExpr compiled,
                          expr::CompiledExpr::Compile(predicate, Env()));
  if (compiled.result_type() != DataType::kBool) {
    return Status::TypeError("predicate '" + predicate + "' must be bool");
  }
  DisplayRowAccessor accessor(*this, row);
  TIOGA2_ASSIGN_OR_RETURN(Value keep, compiled.Eval(accessor));
  return !keep.is_null() && keep.bool_value();
}

Result<DisplayRelation> DisplayRelation::Project(
    const std::vector<std::string>& columns) const {
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr projected, db::Project(base_, columns));
  // Old stored index -> new stored index.
  std::vector<std::optional<size_t>> remap(base_->schema()->num_columns());
  for (size_t new_index = 0; new_index < columns.size(); ++new_index) {
    TIOGA2_ASSIGN_OR_RETURN(size_t old_index, base_->schema()->ColumnIndex(columns[new_index]));
    remap[old_index] = new_index;
  }
  DisplayRelation out = *this;
  out.base_ = projected;
  std::vector<Attribute> kept;
  for (Attribute attr : attributes_) {
    if (attr.source == AttrSource::kStored) {
      if (!remap[attr.stored_index].has_value()) {
        // Dropping a designated attribute is an error; other stored
        // attributes silently disappear with the projection.
        bool designated =
            std::find(location_names_.begin(), location_names_.end(), attr.name) !=
                location_names_.end() ||
            attr.name == display_name_;
        if (designated) {
          return Status::FailedPrecondition("cannot project out '" + attr.name +
                                            "', it is a designated location/display "
                                            "attribute");
        }
        continue;
      }
      attr.stored_index = *remap[attr.stored_index];
    } else if (attr.source == AttrSource::kExpr) {
      Status remapped = expr::RemapStoredAttributeIndices(
          attr.definition->mutable_root(),
          [&remap, &attr](size_t old_index) -> Result<size_t> {
            if (old_index >= remap.size() || !remap[old_index].has_value()) {
              return Status::FailedPrecondition(
                  "computed attribute '" + attr.name +
                  "' references a column dropped by Project");
            }
            return *remap[old_index];
          });
      TIOGA2_RETURN_IF_ERROR(remapped);
    }
    kept.push_back(std::move(attr));
  }
  out.attributes_ = std::move(kept);
  return out;
}

Result<DisplayRelation> DisplayRelation::Sample(double probability, uint64_t seed) const {
  TIOGA2_ASSIGN_OR_RETURN(db::RelationPtr sampled, db::Sample(base_, probability, seed));
  DisplayRelation out = *this;
  out.base_ = std::move(sampled);
  return out;
}

Result<DisplayRelation> DisplayRelation::WithBase(db::RelationPtr base) const {
  if (base == nullptr) return Status::InvalidArgument("base relation must be non-null");
  if (!(*base->schema() == *base_->schema())) {
    return Status::TypeError("WithBase may not change the schema");
  }
  DisplayRelation out = *this;
  out.base_ = std::move(base);
  return out;
}

std::string DisplayRelation::ToString(size_t max_rows) const {
  std::string out = "DisplayRelation '" + name_ + "' dim=" +
                    std::to_string(Dimension()) + " display=" + display_name_ + "\n";
  for (size_t c = 0; c < attributes_.size(); ++c) {
    if (c > 0) out += " | ";
    out += attributes_[c].name;
  }
  out += "\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < attributes_.size(); ++c) {
      if (c > 0) out += " | ";
      Result<Value> v = AttributeValue(r, attributes_[c].name);
      out += v.ok() ? v.value().ToString() : ("<" + v.status().ToString() + ">");
    }
    out += "\n";
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace tioga2::display
