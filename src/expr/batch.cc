#include "expr/batch.h"

#include <algorithm>
#include <utility>

#include "db/relation.h"
#include "draw/drawable.h"
#include "expr/builtins.h"
#include "expr/evaluator.h"
#include "expr/simd/simd.h"

namespace tioga2::expr {

using types::DataType;
using types::Value;

void IdentitySelection(size_t begin, size_t end, Selection* sel) {
  sel->clear();
  sel->reserve(end - begin);
  for (size_t r = begin; r < end; ++r) sel->push_back(static_cast<uint32_t>(r));
}

bool Vec::IsNull(size_t k) const {
  switch (rep) {
    case Rep::kConst:
      return cval.is_null();
    case Rep::kView:
      return view->IsNull((*view_sel)[k]);
    case Rep::kOwned:
      if (!boxed.empty()) return boxed[k].is_null();
      return !null_bits.empty() && ((null_bits[k >> 6] >> (k & 63)) & 1) != 0;
  }
  return false;
}

Value Vec::ValueAt(size_t k) const {
  switch (rep) {
    case Rep::kConst:
      return cval;
    case Rep::kView:
      return view->ValueAt((*view_sel)[k]);
    case Rep::kOwned:
      break;
  }
  if (!boxed.empty()) return boxed[k];
  if (IsNull(k)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(bools[k] != 0);
    case DataType::kInt:
      return Value::Int(ints[k]);
    case DataType::kFloat:
      return Value::Float(floats[k]);
    case DataType::kString:
      return Value::String(strings[k]);
    case DataType::kDate:
      return Value::DateVal(types::Date(dates[k]));
    case DataType::kDisplay:
      break;  // typed display vecs are never built; display stays boxed
  }
  return Value::Null();
}

Vec Vec::Const(Value v, size_t n) {
  Vec out;
  out.rep = Rep::kConst;
  out.size = n;
  if (!v.is_null()) out.type = v.type();
  out.cval = std::move(v);
  return out;
}

Vec Vec::OwnedBoxed(std::vector<Value> values) {
  Vec out;
  out.rep = Rep::kOwned;
  out.size = values.size();
  out.boxed = std::move(values);
  return out;
}

void Vec::SetNull(size_t k) {
  if (null_bits.empty()) null_bits.resize((size + 63) / 64, 0);
  null_bits[k >> 6] |= uint64_t{1} << (k & 63);
}

size_t RelationBatchSource::num_rows() const { return relation_.num_rows(); }

const db::ColumnVector* RelationBatchSource::StoredColumn(size_t index) const {
  return &relation_.columnar().column(index);
}

Result<Value> RelationBatchSource::StoredAt(size_t index, size_t row) const {
  if (index >= relation_.num_columns()) {
    return Status::Internal("stored attribute index out of range");
  }
  return relation_.at(row, index);
}

Result<Value> RelationBatchSource::NamedAt(const std::string& name, size_t) const {
  return Status::NotFound("no computed attribute '" + name +
                          "' on a plain relation tuple");
}

BatchMetrics& BatchMetrics::Global() {
  static BatchMetrics* metrics = new BatchMetrics();
  return *metrics;
}

void BatchMetrics::Reset() {
  restrict_batches = 0;
  restrict_rows = 0;
  restrict_scalar_rows = 0;
  sort_key_batches = 0;
  sort_scalar_fallbacks = 0;
  display_attr_batches = 0;
  display_attr_rows = 0;
  render_location_batches = 0;
  render_scalar_fallbacks = 0;
  join_hash_build_rows = 0;
  join_hash_probe_rows = 0;
  join_nested_batches = 0;
  nodes_vectorized = 0;
  nodes_fallback = 0;
  simd_batches_sse2 = 0;
  simd_batches_avx2 = 0;
  simd_rows = 0;
  simd_scalar_fallbacks = 0;
  dict_columns_built = 0;
  dict_simd_batches = 0;
  dict_remap_fallbacks = 0;
  sparse_gathers = 0;
  morsel_groups = 0;
  morsel_groups_parallel = 0;
  morsels_executed = 0;
  morsels_stolen = 0;
  morsel_parallel_rows = 0;
}

BatchEvaluator::BatchEvaluator(const BatchSource& source)
    : BatchEvaluator(source, db::DefaultExecPolicy()) {}

BatchEvaluator::BatchEvaluator(const BatchSource& source,
                               const db::ExecPolicy& policy)
    : source_(source),
      simd_level_(static_cast<int>(simd::Resolve(policy.simd))),
      sparse_gather_density_(policy.sparse_gather_density) {}

namespace {

/// The vec-level runtime type, when uniform: the type every non-null element
/// has at runtime. nullopt for boxed vecs (per-element types may differ) and
/// null constants (no runtime type at all).
std::optional<DataType> UniformType(const Vec& v) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      if (v.cval.is_null()) return std::nullopt;
      return v.cval.type();
    case Vec::Rep::kView:
      return v.view->type;
    case Vec::Rep::kOwned:
      if (!v.boxed.empty()) return std::nullopt;
      return v.type;
  }
  return std::nullopt;
}

double ReadDouble(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.AsDouble();
    case Vec::Rep::kView: {
      size_t row = (*v.view_sel)[k];
      return v.view->type == DataType::kInt ? static_cast<double>(v.view->ints[row])
                                            : v.view->floats[row];
    }
    case Vec::Rep::kOwned:
      return v.type == DataType::kInt ? static_cast<double>(v.ints[k]) : v.floats[k];
  }
  return 0;
}

int64_t ReadInt(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.int_value();
    case Vec::Rep::kView:
      return v.view->ints[(*v.view_sel)[k]];
    case Vec::Rep::kOwned:
      return v.ints[k];
  }
  return 0;
}

bool ReadBool(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.bool_value();
    case Vec::Rep::kView:
      return v.view->bools[(*v.view_sel)[k]] != 0;
    case Vec::Rep::kOwned:
      if (!v.boxed.empty()) return v.boxed[k].bool_value();
      return v.bools[k] != 0;
  }
  return false;
}

const std::string& ReadString(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.string_value();
    case Vec::Rep::kView:
      return v.view->strings[(*v.view_sel)[k]];
    case Vec::Rep::kOwned:
      return v.strings[k];
  }
  return v.cval.string_value();
}

int64_t ReadDateDays(const Vec& v, size_t k) {
  switch (v.rep) {
    case Vec::Rep::kConst:
      return v.cval.date_value().DaysValue();
    case Vec::Rep::kView:
      return v.view->dates[(*v.view_sel)[k]];
    case Vec::Rep::kOwned:
      return v.dates[k];
  }
  return 0;
}

Vec MakeTypedVec(DataType type, size_t n) {
  Vec out;
  out.rep = Vec::Rep::kOwned;
  out.type = type;
  out.size = n;
  switch (type) {
    case DataType::kBool:
      out.bools.resize(n);
      break;
    case DataType::kInt:
      out.ints.resize(n);
      break;
    case DataType::kFloat:
      out.floats.resize(n);
      break;
    case DataType::kString:
      out.strings.resize(n);
      break;
    case DataType::kDate:
      out.dates.resize(n);
      break;
    case DataType::kDisplay:
      out.boxed.resize(n);
      break;
  }
  return out;
}

/// True when `v` reads a dictionary-encoded string column: the operand a
/// string comparison can lower onto integer codes.
bool DictCompareOperand(const Vec& v) {
  return v.rep == Vec::Rep::kView && v.view->type == DataType::kString &&
         v.view->has_dict();
}

/// Gathers the dictionary codes of a kView string operand into a dense
/// kOwned int vector (nulls mirrored), ready for the numeric lane kernels.
/// Works for any selection shape — sparse string comparisons still lower.
Vec GatherCodes(const Vec& v) {
  const db::ColumnVector& col = *v.view;
  const Selection& vs = *v.view_sel;
  const size_t n = v.size;
  Vec codes = MakeTypedVec(DataType::kInt, n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = vs[k];
    if (col.IsNull(r)) {
      codes.SetNull(k);
    } else {
      codes.ints[k] = static_cast<int64_t>(col.dict_codes[r]);
    }
  }
  return codes;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Maps `column <op> constant` into code space. With L = lower-bound rank of
/// the constant in the sorted dictionary and U = its upper-bound rank
/// (L+1 when present, L when absent — the dictionary is duplicate-free):
///   =   → code == L   (== -1 when absent: always false, codes are >= 0)
///   <>  → code != L   (!= -1 when absent: always true)
///   <   → code <  L
///   <=  → code <  U
///   >   → code >= U
///   >=  → code >= L
/// Valid because the dictionary is sorted in the exact order Value::Compare
/// gives strings, so code order == string order.
void LowerDictCompare(const std::vector<std::string>& dict, BinaryOp op,
                      const std::string& constant, BinaryOp* op_out,
                      int64_t* const_out) {
  const auto lo = std::lower_bound(dict.begin(), dict.end(), constant);
  const int64_t rank = lo - dict.begin();
  const bool found = lo != dict.end() && *lo == constant;
  const int64_t upper = found ? rank + 1 : rank;
  switch (op) {
    case BinaryOp::kEq:
      *op_out = BinaryOp::kEq;
      *const_out = found ? rank : -1;
      break;
    case BinaryOp::kNe:
      *op_out = BinaryOp::kNe;
      *const_out = found ? rank : -1;
      break;
    case BinaryOp::kLt:
      *op_out = BinaryOp::kLt;
      *const_out = rank;
      break;
    case BinaryOp::kLe:
      *op_out = BinaryOp::kLt;
      *const_out = upper;
      break;
    case BinaryOp::kGt:
      *op_out = BinaryOp::kGe;
      *const_out = upper;
      break;
    default:  // kGe
      *op_out = BinaryOp::kGe;
      *const_out = rank;
      break;
  }
}

/// Gathers a sparse numeric kView operand into dense kOwned storage when its
/// density (selected / spanned rows) is at or below `density_bound`, so the
/// SIMD kernels — which require dense selections — still apply after a
/// selective Restrict. Bit-identical either way; only the storage moves.
bool MaybeGatherSparse(Vec* v, size_t n, double density_bound) {
  if (v->rep != Vec::Rep::kView || n == 0) return false;
  const db::ColumnVector& col = *v->view;
  if (col.type != DataType::kInt && col.type != DataType::kFloat) return false;
  const Selection& vs = *v->view_sel;
  const size_t span = static_cast<size_t>(vs.back() - vs.front()) + 1;
  if (span == n) return false;  // dense run: FlattenNumeric takes it as-is
  if (static_cast<double>(n) > density_bound * static_cast<double>(span)) {
    return false;
  }
  Vec gathered = MakeTypedVec(col.type, n);
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = vs[k];
    if (col.IsNull(r)) {
      gathered.SetNull(k);
    } else if (col.type == DataType::kInt) {
      gathered.ints[k] = col.ints[r];
    } else {
      gathered.floats[k] = col.floats[r];
    }
  }
  ++BatchMetrics::Global().sparse_gathers;
  *v = std::move(gathered);
  return true;
}

/// Converts a boxed Vec to a typed one when every non-null element has the
/// same primitive runtime type (all-null becomes a null constant). Uniformity
/// is checked at runtime, not taken from the analyzer: `if`/`coalesce` may
/// return Int where Float was declared, and the typed form must mirror what
/// the scalar evaluator actually produced.
void PromoteIfUniform(Vec* v) {
  if (!v->is_boxed()) return;
  std::optional<DataType> t;
  for (const Value& value : v->boxed) {
    if (value.is_null()) continue;
    DataType vt = value.type();
    if (vt == DataType::kDisplay) return;  // display stays boxed
    if (!t.has_value()) {
      t = vt;
    } else if (*t != vt) {
      return;
    }
  }
  if (!t.has_value()) {
    *v = Vec::Const(Value::Null(), v->size);
    return;
  }
  Vec typed = MakeTypedVec(*t, v->size);
  for (size_t k = 0; k < v->boxed.size(); ++k) {
    const Value& value = v->boxed[k];
    if (value.is_null()) {
      typed.SetNull(k);
      continue;
    }
    switch (*t) {
      case DataType::kBool:
        typed.bools[k] = value.bool_value() ? 1 : 0;
        break;
      case DataType::kInt:
        typed.ints[k] = value.int_value();
        break;
      case DataType::kFloat:
        typed.floats[k] = value.float_value();
        break;
      case DataType::kString:
        typed.strings[k] = value.string_value();
        break;
      case DataType::kDate:
        typed.dates[k] = value.date_value().DaysValue();
        break;
      case DataType::kDisplay:
        break;  // unreachable: display returned above
    }
  }
  *v = std::move(typed);
}

/// Batch path for the unary conversions float(numeric) and days(date) over
/// typed operands: one typed loop instead of a boxed Value per row (computed
/// location attributes such as `float(days(obs_date))` are evaluated every
/// frame). Values are identical to the overloads' scalar eval, Float of the
/// operand's double value and Int of the date's day count; null operands
/// give null. Returns false for anything else, and the caller falls back.
bool TryEvalConversionBuiltin(const ExprNode& node, const std::vector<Vec>& args,
                              size_t n, Vec* out) {
  if (node.overload == nullptr || node.overload->null_opaque || args.size() != 1) {
    return false;
  }
  const Vec& arg = args[0];
  if (arg.rep == Vec::Rep::kConst || arg.is_boxed()) return false;
  std::optional<DataType> t = UniformType(arg);
  if (!t.has_value()) return false;
  const bool to_float = node.name == "float" && IsNumericType(*t);
  const bool to_days = node.name == "days" && *t == DataType::kDate;
  if (!to_float && !to_days) return false;
  *out = MakeTypedVec(to_float ? DataType::kFloat : DataType::kInt, n);
  for (size_t k = 0; k < n; ++k) {
    if (arg.IsNull(k)) {
      out->SetNull(k);
    } else if (to_float) {
      out->floats[k] = ReadDouble(arg, k);
    } else {
      out->ints[k] = ReadDateDays(arg, k);
    }
  }
  return true;
}

/// Batch path for the drawable-constructor builtins (point/circle/rect/line/
/// text/offset): styling arguments (colors, fill flags) must be batch
/// constants so parsing and decoding hoist out of the row loop, while
/// numeric/string/display arguments stream from the operand vectors without
/// per-row boxing. Returns true and fills *out with results value-identical
/// to running the overload's scalar eval row by row; false (including for a
/// constant color that fails to parse — the scalar loop then reports it, or
/// legitimately skips it when every row has a null argument) means the
/// caller falls back.
bool TryEvalDisplayBuiltin(const ExprNode& node, const std::vector<Vec>& args,
                           size_t n, Vec* out) {
  if (node.overload == nullptr || node.overload->null_opaque) return false;
  const std::string& name = node.name;
  const size_t argc = args.size();

  auto numeric_ok = [&](size_t a) {
    std::optional<DataType> t = UniformType(args[a]);
    return !args[a].is_boxed() && t.has_value() && IsNumericType(*t);
  };
  auto string_ok = [&](size_t a) {
    return !args[a].is_boxed() && UniformType(args[a]) == DataType::kString;
  };
  auto const_nonnull = [&](size_t a, DataType t) {
    return args[a].rep == Vec::Rep::kConst && !args[a].cval.is_null() &&
           args[a].cval.type() == t;
  };
  auto parse_color = [&](size_t a, draw::Color* color) {
    return draw::ColorFromHex(args[a].cval.string_value(), color);
  };
  auto wrap = [](draw::Drawable d) {
    return Value::Display(draw::MakeDrawableList({std::move(d)}));
  };
  auto build = [&](auto&& make) {
    std::vector<Value> values;
    values.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      bool null_arg = false;
      for (const Vec& a : args) {
        if (a.IsNull(k)) {
          null_arg = true;
          break;
        }
      }
      if (null_arg) {
        values.push_back(Value::Null());
      } else {
        values.push_back(make(k));
      }
    }
    *out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(out);
    return true;
  };

  if (name == "point") {
    if (argc == 0) {
      *out = Vec::Const(wrap(draw::MakePoint()), n);
      return true;
    }
    draw::Color color;
    if (argc == 1 && const_nonnull(0, DataType::kString) &&
        parse_color(0, &color)) {
      *out = Vec::Const(wrap(draw::MakePoint(color)), n);
      return true;
    }
    return false;
  }
  if (name == "circle") {
    if (argc < 1 || !numeric_ok(0)) return false;
    if (argc == 1) {
      return build(
          [&](size_t k) { return wrap(draw::MakeCircle(ReadDouble(args[0], k))); });
    }
    draw::Color color;
    if (!const_nonnull(1, DataType::kString) || !parse_color(1, &color)) {
      return false;
    }
    if (argc == 2) {
      return build([&](size_t k) {
        return wrap(draw::MakeCircle(ReadDouble(args[0], k), color));
      });
    }
    if (argc == 3 && const_nonnull(2, DataType::kBool)) {
      const draw::FillMode fill = args[2].cval.bool_value()
                                      ? draw::FillMode::kFilled
                                      : draw::FillMode::kOutline;
      return build([&](size_t k) {
        return wrap(draw::MakeCircle(ReadDouble(args[0], k), color, fill));
      });
    }
    return false;
  }
  if (name == "rect") {
    if (argc < 2 || !numeric_ok(0) || !numeric_ok(1)) return false;
    if (argc == 2) {
      return build([&](size_t k) {
        return wrap(
            draw::MakeRectangle(ReadDouble(args[0], k), ReadDouble(args[1], k)));
      });
    }
    draw::Color color;
    if (!const_nonnull(2, DataType::kString) || !parse_color(2, &color)) {
      return false;
    }
    if (argc == 3) {
      return build([&](size_t k) {
        return wrap(draw::MakeRectangle(ReadDouble(args[0], k),
                                        ReadDouble(args[1], k), color));
      });
    }
    if (argc == 4 && const_nonnull(3, DataType::kBool)) {
      const draw::FillMode fill = args[3].cval.bool_value()
                                      ? draw::FillMode::kFilled
                                      : draw::FillMode::kOutline;
      return build([&](size_t k) {
        return wrap(draw::MakeRectangle(ReadDouble(args[0], k),
                                        ReadDouble(args[1], k), color, fill));
      });
    }
    return false;
  }
  if (name == "line") {
    if (argc < 2 || !numeric_ok(0) || !numeric_ok(1)) return false;
    if (argc == 2) {
      return build([&](size_t k) {
        return wrap(draw::MakeLine(ReadDouble(args[0], k), ReadDouble(args[1], k)));
      });
    }
    draw::Color color;
    if (argc == 3 && const_nonnull(2, DataType::kString) &&
        parse_color(2, &color)) {
      return build([&](size_t k) {
        return wrap(
            draw::MakeLine(ReadDouble(args[0], k), ReadDouble(args[1], k), color));
      });
    }
    return false;
  }
  if (name == "text") {
    if (argc < 2 || !string_ok(0) || !numeric_ok(1)) return false;
    draw::Color color;
    bool have_color = false;
    if (argc == 3) {
      if (!const_nonnull(2, DataType::kString) || !parse_color(2, &color)) {
        return false;
      }
      have_color = true;
    } else if (argc != 2) {
      return false;
    }
    // Dictionary splat: with an encoded label column and a constant size,
    // rows with the same code yield the same drawable — format each distinct
    // code once and share the DrawableList across its rows (sharing is
    // established practice: a kConst display Vec already shares one list).
    if (args[0].rep == Vec::Rep::kView && args[0].view->has_dict() &&
        args[1].rep == Vec::Rep::kConst && !args[1].cval.is_null()) {
      const db::ColumnVector& col = *args[0].view;
      const std::vector<std::string>& dict = *col.dict_values;
      const double size_arg = args[1].cval.AsDouble();
      std::vector<Value> per_code(dict.size());
      std::vector<Value> values;
      values.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (args[0].IsNull(k)) {
          values.push_back(Value::Null());
          continue;
        }
        const uint32_t code = col.dict_codes[(*args[0].view_sel)[k]];
        Value& cached = per_code[code];
        if (cached.is_null()) {
          cached = have_color
                       ? wrap(draw::MakeText(dict[code], size_arg, color))
                       : wrap(draw::MakeText(dict[code], size_arg));
        }
        values.push_back(cached);
      }
      ++BatchMetrics::Global().dict_simd_batches;
      *out = Vec::OwnedBoxed(std::move(values));
      PromoteIfUniform(out);
      return true;
    }
    if (have_color) {
      return build([&](size_t k) {
        return wrap(draw::MakeText(ReadString(args[0], k),
                                   ReadDouble(args[1], k), color));
      });
    }
    return build([&](size_t k) {
      return wrap(draw::MakeText(ReadString(args[0], k), ReadDouble(args[1], k)));
    });
  }
  if (name == "offset" && argc == 3) {
    // The display operand stays boxed (DrawableLists are shared pointers);
    // the win is streaming the two offsets from typed vectors.
    if (!numeric_ok(1) || !numeric_ok(2)) return false;
    return build([&](size_t k) {
      return Value::Display(draw::CombineDrawableLists(
          draw::MakeDrawableList({}), args[0].ValueAt(k).display_value(),
          ReadDouble(args[1], k), ReadDouble(args[2], k)));
    });
  }
  return false;
}

}  // namespace

Result<Vec> BatchEvaluator::Eval(const ExprNode& node, const Selection& sel) {
  switch (node.kind) {
    case ExprNode::Kind::kLiteral:
      ++stats_.vectorized_nodes;
      return Vec::Const(node.literal, sel.size());
    case ExprNode::Kind::kAttributeRef:
      return EvalAttribute(node, sel);
    case ExprNode::Kind::kUnary: {
      TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(*node.children[0], sel));
      const size_t n = sel.size();
      if (v.rep == Vec::Rep::kConst) {
        ++stats_.vectorized_nodes;
        return Vec::Const(ApplyUnaryOp(node.unary_op, v.cval), n);
      }
      std::optional<DataType> t = UniformType(v);
      if (node.unary_op == UnaryOp::kNeg && t.has_value() && IsNumericType(*t)) {
        ++stats_.vectorized_nodes;
        Vec out = MakeTypedVec(*t, n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.SetNull(k);
          } else if (*t == DataType::kInt) {
            out.ints[k] = -ReadInt(v, k);
          } else {
            out.floats[k] = -ReadDouble(v, k);
          }
        }
        return out;
      }
      if (node.unary_op == UnaryOp::kNot && t == DataType::kBool) {
        ++stats_.vectorized_nodes;
        Vec out = MakeTypedVec(DataType::kBool, n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out.SetNull(k);
          } else {
            out.bools[k] = ReadBool(v, k) ? 0 : 1;
          }
        }
        return out;
      }
      ++stats_.fallback_nodes;
      std::vector<Value> values;
      values.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        values.push_back(ApplyUnaryOp(node.unary_op, v.ValueAt(k)));
      }
      Vec out = Vec::OwnedBoxed(std::move(values));
      PromoteIfUniform(&out);
      return out;
    }
    case ExprNode::Kind::kBinary:
      if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
        return EvalAndOr(node, sel);
      }
      return EvalBinary(node, sel);
    case ExprNode::Kind::kCall:
      return EvalCall(node, sel);
  }
  return Status::Internal("unhandled node kind in BatchEvaluator");
}

Result<Vec> BatchEvaluator::EvalAttribute(const ExprNode& node, const Selection& sel) {
  if (node.stored_index.has_value()) {
    const db::ColumnVector* column = source_.StoredColumn(*node.stored_index);
    if (column != nullptr) {
      ++stats_.vectorized_nodes;
      Vec out;
      out.rep = Vec::Rep::kView;
      out.type = column->type;
      out.size = sel.size();
      out.view = column;
      out.view_sel = &sel;
      return out;
    }
    ++stats_.fallback_nodes;
    std::vector<Value> values;
    values.reserve(sel.size());
    for (uint32_t row : sel) {
      TIOGA2_ASSIGN_OR_RETURN(Value v, source_.StoredAt(*node.stored_index, row));
      values.push_back(std::move(v));
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }
  // Computed attribute with a batchable definition: recurse into the
  // defining expression as a vector instead of boxing one Value per row.
  // The in-flight stack guards self-referential definitions — those take
  // the per-row path below, which reports the recursion error.
  const ExprNode* def = source_.NamedExpr(node.name);
  if (def != nullptr &&
      std::find(named_in_flight_.begin(), named_in_flight_.end(), node.name) ==
          named_in_flight_.end()) {
    named_in_flight_.push_back(node.name);
    Result<Vec> expanded = Eval(*def, sel);
    named_in_flight_.pop_back();
    if (expanded.ok()) {
      ++stats_.vectorized_nodes;
      return expanded;
    }
    // On error fall through: the per-row path reproduces the scalar
    // evaluator's message (success/failure always agrees, see class doc).
  }
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(sel.size());
  for (uint32_t row : sel) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, source_.NamedAt(node.name, row));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

Result<Vec> BatchEvaluator::EvalBinary(const ExprNode& node, const Selection& sel) {
  BinaryOp op = node.binary_op;
  TIOGA2_ASSIGN_OR_RETURN(Vec lhs, Eval(*node.children[0], sel));
  TIOGA2_ASSIGN_OR_RETURN(Vec rhs, Eval(*node.children[1], sel));
  const size_t n = sel.size();

  // A null constant operand makes every comparison and arithmetic result
  // null (the scalar evaluator's null propagation).
  if ((lhs.rep == Vec::Rep::kConst && lhs.cval.is_null()) ||
      (rhs.rep == Vec::Rep::kConst && rhs.cval.is_null())) {
    ++stats_.vectorized_nodes;
    return Vec::Const(Value::Null(), n);
  }

  std::optional<DataType> lt = UniformType(lhs);
  std::optional<DataType> rt = UniformType(rhs);
  const bool both_numeric = lt.has_value() && rt.has_value() &&
                            IsNumericType(*lt) && IsNumericType(*rt);

  const bool is_comparison =
      op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
      op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;

  // SIMD fast path: dense numeric comparisons and + - * / run as explicit
  // lane kernels (expr/simd/), bit-identical to the typed loops below.
  // Boxed operands and kMod fall through unchanged; sparse selections are
  // gathered dense first when selective enough (ExecPolicy's
  // sparse_gather_density), otherwise they fall through too.
  if (simd_level_ != static_cast<int>(simd::Level::kScalar) && both_numeric &&
      op != BinaryOp::kMod) {
    if (sparse_gather_density_ > 0) {
      MaybeGatherSparse(&lhs, n, sparse_gather_density_);
      MaybeGatherSparse(&rhs, n, sparse_gather_density_);
    }
    Vec out;
    if (simd::TryNumericBinary(static_cast<simd::Level>(simd_level_), op, lhs,
                               rhs, n, &out)) {
      ++stats_.vectorized_nodes;
      ++stats_.simd_nodes;
      BatchMetrics& m = BatchMetrics::Global();
      if (simd_level_ == static_cast<int>(simd::Level::kAVX2)) {
        ++m.simd_batches_avx2;
      } else {
        ++m.simd_batches_sse2;
      }
      m.simd_rows += n;
      return out;
    }
    ++BatchMetrics::Global().simd_scalar_fallbacks;
  }

  // Dictionary lowering: `string_column <cmp> constant` over an encoded
  // column becomes an integer comparison on dictionary codes — the constant
  // resolves to a code-space threshold once, then the batch runs on the lane
  // kernels (sparse selections included: codes gather dense for free). The
  // bool bits are identical to the string loop's because code order equals
  // string order.
  if (is_comparison) {
    const Vec* col_side = nullptr;
    const Vec* const_side = nullptr;
    bool flipped = false;
    if (DictCompareOperand(lhs) && rhs.rep == Vec::Rep::kConst &&
        rhs.cval.type() == DataType::kString) {
      col_side = &lhs;
      const_side = &rhs;
    } else if (DictCompareOperand(rhs) && lhs.rep == Vec::Rep::kConst &&
               lhs.cval.type() == DataType::kString) {
      col_side = &rhs;
      const_side = &lhs;
      flipped = true;
    }
    if (col_side != nullptr) {
      BinaryOp code_op = BinaryOp::kEq;
      int64_t code_const = 0;
      LowerDictCompare(*col_side->view->dict_values,
                       flipped ? FlipComparison(op) : op,
                       const_side->cval.string_value(), &code_op, &code_const);
      Vec codes = GatherCodes(*col_side);
      ++stats_.vectorized_nodes;
      ++BatchMetrics::Global().dict_simd_batches;
      if (simd_level_ != static_cast<int>(simd::Level::kScalar)) {
        Vec threshold = Vec::Const(Value::Int(code_const), n);
        Vec out;
        if (simd::TryNumericBinary(static_cast<simd::Level>(simd_level_),
                                   code_op, codes, threshold, n, &out)) {
          ++stats_.simd_nodes;
          BatchMetrics& m = BatchMetrics::Global();
          if (simd_level_ == static_cast<int>(simd::Level::kAVX2)) {
            ++m.simd_batches_avx2;
          } else {
            ++m.simd_batches_sse2;
          }
          m.simd_rows += n;
          return out;
        }
      }
      // Scalar tail: the same integer comparison element-wise (codes are
      // exact in double, so this matches the lane kernels bit for bit).
      Vec out = MakeTypedVec(DataType::kBool, n);
      for (size_t k = 0; k < n; ++k) {
        if (codes.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        const int64_t c = codes.ints[k];
        bool result = false;
        switch (code_op) {
          case BinaryOp::kEq: result = c == code_const; break;
          case BinaryOp::kNe: result = c != code_const; break;
          case BinaryOp::kLt: result = c < code_const; break;
          default: result = c >= code_const; break;  // kGe
        }
        out.bools[k] = result ? 1 : 0;
      }
      return out;
    }
    // Same comparable class on both sides → typed loop; results mirror
    // Value::Equals/Compare exactly (all numeric pairs compare as double,
    // including int with int).
    enum class Cmp { kNumeric, kString, kDate, kBool, kNone };
    Cmp mode = Cmp::kNone;
    if (both_numeric) {
      mode = Cmp::kNumeric;
    } else if (lt == DataType::kString && rt == DataType::kString) {
      mode = Cmp::kString;
    } else if (lt == DataType::kDate && rt == DataType::kDate) {
      mode = Cmp::kDate;
    } else if (lt == DataType::kBool && rt == DataType::kBool) {
      mode = Cmp::kBool;
    }
    if (mode != Cmp::kNone) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kBool, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        if (mode == Cmp::kNumeric) {
          // Orderings mirror Value::Compare's `a < b ? -1 : (a > b ? 1 : 0)`
          // construction (a NaN operand makes <= and >= true, < and > false);
          // equality mirrors Value::Equals's IEEE `a == b` (NaN equals
          // nothing) — the two disagree on NaN, so eq/ne must not go through
          // the cmp integer.
          const double a = ReadDouble(lhs, k);
          const double b = ReadDouble(rhs, k);
          bool result = false;
          switch (op) {
            case BinaryOp::kEq: result = a == b; break;
            case BinaryOp::kNe: result = !(a == b); break;
            case BinaryOp::kLt: result = a < b; break;
            case BinaryOp::kLe: result = !(a > b); break;
            case BinaryOp::kGt: result = a > b; break;
            default: result = !(a < b); break;
          }
          out.bools[k] = result ? 1 : 0;
          continue;
        }
        int cmp = 0;
        switch (mode) {
          case Cmp::kNumeric:
            break;  // handled above
          case Cmp::kString: {
            int c = ReadString(lhs, k).compare(ReadString(rhs, k));
            cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
            break;
          }
          case Cmp::kDate: {
            int64_t a = ReadDateDays(lhs, k);
            int64_t b = ReadDateDays(rhs, k);
            cmp = a < b ? -1 : (a > b ? 1 : 0);
            break;
          }
          case Cmp::kBool: {
            int a = ReadBool(lhs, k) ? 1 : 0;
            int b = ReadBool(rhs, k) ? 1 : 0;
            cmp = a - b;
            break;
          }
          case Cmp::kNone:
            break;
        }
        bool result = false;
        switch (op) {
          case BinaryOp::kEq: result = cmp == 0; break;
          case BinaryOp::kNe: result = cmp != 0; break;
          case BinaryOp::kLt: result = cmp < 0; break;
          case BinaryOp::kLe: result = cmp <= 0; break;
          case BinaryOp::kGt: result = cmp > 0; break;
          default: result = cmp >= 0; break;
        }
        out.bools[k] = result ? 1 : 0;
      }
      return out;
    }
  } else if (both_numeric) {
    // Arithmetic over numeric vecs. The int/float decision comes from the
    // vecs' *runtime* types (not the analyzer), so an `if` that returned
    // Int where Float was declared still yields the same Value kinds as the
    // scalar evaluator.
    const bool both_int = *lt == DataType::kInt && *rt == DataType::kInt;
    if (op == BinaryOp::kAdd || op == BinaryOp::kSub || op == BinaryOp::kMul) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(both_int ? DataType::kInt : DataType::kFloat, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        if (both_int) {
          int64_t a = ReadInt(lhs, k);
          int64_t b = ReadInt(rhs, k);
          out.ints[k] = op == BinaryOp::kAdd   ? a + b
                        : op == BinaryOp::kSub ? a - b
                                               : a * b;
        } else {
          double a = ReadDouble(lhs, k);
          double b = ReadDouble(rhs, k);
          out.floats[k] = op == BinaryOp::kAdd   ? a + b
                          : op == BinaryOp::kSub ? a - b
                                                 : a * b;
        }
      }
      return out;
    }
    if (op == BinaryOp::kDiv) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kFloat, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        double b = ReadDouble(rhs, k);
        if (b == 0) {
          out.SetNull(k);
        } else {
          out.floats[k] = ReadDouble(lhs, k) / b;
        }
      }
      return out;
    }
    if (op == BinaryOp::kMod && both_int) {
      ++stats_.vectorized_nodes;
      Vec out = MakeTypedVec(DataType::kInt, n);
      for (size_t k = 0; k < n; ++k) {
        if (lhs.IsNull(k) || rhs.IsNull(k)) {
          out.SetNull(k);
          continue;
        }
        int64_t b = ReadInt(rhs, k);
        if (b == 0) {
          out.SetNull(k);
        } else {
          out.ints[k] = ReadInt(lhs, k) % b;
        }
      }
      return out;
    }
  }

  // Uncovered operand combination (strings +, dates, display, mixed boxed):
  // element-wise through the shared scalar kernel.
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    TIOGA2_ASSIGN_OR_RETURN(Value v, ApplyBinaryOp(op, lhs.ValueAt(k), rhs.ValueAt(k)));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

Result<Vec> BatchEvaluator::EvalAndOr(const ExprNode& node, const Selection& sel) {
  const BinaryOp op = node.binary_op;
  const bool is_and = op == BinaryOp::kAnd;
  TIOGA2_ASSIGN_OR_RETURN(Vec lhs, Eval(*node.children[0], sel));
  const size_t n = sel.size();

  // Rows where the left operand decides short-circuit past the right one,
  // so the right operand is evaluated only where the scalar evaluator would
  // evaluate it (same error surface, same cost profile).
  auto decisive = [&](size_t k) {
    if (lhs.IsNull(k)) return false;
    bool l = ReadBool(lhs, k);
    return is_and ? !l : l;
  };
  Selection need;
  for (size_t k = 0; k < n; ++k) {
    if (!decisive(k)) need.push_back(sel[k]);
  }

  ++stats_.vectorized_nodes;
  Vec out = MakeTypedVec(DataType::kBool, n);
  if (need.empty()) {
    for (size_t k = 0; k < n; ++k) out.bools[k] = is_and ? 0 : 1;
    return out;
  }
  TIOGA2_ASSIGN_OR_RETURN(Vec rhs, Eval(*node.children[1], need));
  // When no row was decisive the right operand is aligned with the left
  // (need == sel), and the whole three-valued merge can run as a SIMD
  // kernel. Any decisive row keeps the scalar merge below, preserving the
  // short-circuit contract row for row.
  if (simd_level_ != static_cast<int>(simd::Level::kScalar) &&
      need.size() == n) {
    if (simd::TryAndOrMerge(static_cast<simd::Level>(simd_level_), is_and, lhs,
                            rhs, n, &out)) {
      ++stats_.simd_nodes;
      BatchMetrics& m = BatchMetrics::Global();
      if (simd_level_ == static_cast<int>(simd::Level::kAVX2)) {
        ++m.simd_batches_avx2;
      } else {
        ++m.simd_batches_sse2;
      }
      m.simd_rows += n;
      return out;
    }
    ++BatchMetrics::Global().simd_scalar_fallbacks;
  }
  size_t ri = 0;
  for (size_t k = 0; k < n; ++k) {
    if (decisive(k)) {
      out.bools[k] = is_and ? 0 : 1;
      continue;
    }
    const bool lnull = lhs.IsNull(k);
    const bool rnull = rhs.IsNull(ri);
    const bool r = rnull ? false : ReadBool(rhs, ri);
    ++ri;
    if (is_and) {
      // Non-decisive lhs is null or true.
      if (!rnull && !r) {
        out.bools[k] = 0;
      } else if (lnull || rnull) {
        out.SetNull(k);
      } else {
        out.bools[k] = 1;
      }
    } else {
      // Non-decisive lhs is null or false.
      if (!rnull && r) {
        out.bools[k] = 1;
      } else if (lnull || rnull) {
        out.SetNull(k);
      } else {
        out.bools[k] = 0;
      }
    }
  }
  return out;
}

Result<Vec> BatchEvaluator::EvalCall(const ExprNode& node, const Selection& sel) {
  const size_t n = sel.size();
  if (node.name == "if") {
    TIOGA2_ASSIGN_OR_RETURN(Vec cond, Eval(*node.children[0], sel));
    Selection then_sel, else_sel;
    for (size_t k = 0; k < n; ++k) {
      if (cond.IsNull(k)) continue;
      (ReadBool(cond, k) ? then_sel : else_sel).push_back(sel[k]);
    }
    Vec then_vec, else_vec;
    if (!then_sel.empty()) {
      TIOGA2_ASSIGN_OR_RETURN(then_vec, Eval(*node.children[1], then_sel));
    }
    if (!else_sel.empty()) {
      TIOGA2_ASSIGN_OR_RETURN(else_vec, Eval(*node.children[2], else_sel));
    }
    ++stats_.vectorized_nodes;
    std::vector<Value> values;
    values.reserve(n);
    size_t ti = 0, ei = 0;
    for (size_t k = 0; k < n; ++k) {
      if (cond.IsNull(k)) {
        values.push_back(Value::Null());
      } else if (ReadBool(cond, k)) {
        values.push_back(then_vec.ValueAt(ti++));
      } else {
        values.push_back(else_vec.ValueAt(ei++));
      }
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }
  if (node.name == "coalesce") {
    TIOGA2_ASSIGN_OR_RETURN(Vec first, Eval(*node.children[0], sel));
    Selection null_sel;
    for (size_t k = 0; k < n; ++k) {
      if (first.IsNull(k)) null_sel.push_back(sel[k]);
    }
    ++stats_.vectorized_nodes;
    if (null_sel.empty()) return first;
    TIOGA2_ASSIGN_OR_RETURN(Vec second, Eval(*node.children[1], null_sel));
    std::vector<Value> values;
    values.reserve(n);
    size_t si = 0;
    for (size_t k = 0; k < n; ++k) {
      if (first.IsNull(k)) {
        values.push_back(second.ValueAt(si++));
      } else {
        values.push_back(first.ValueAt(k));
      }
    }
    Vec out = Vec::OwnedBoxed(std::move(values));
    PromoteIfUniform(&out);
    return out;
  }

  const BuiltinOverload* overload = node.overload;
  if (overload == nullptr) {
    return Status::Internal("call to '" + node.name + "' was not analyzed");
  }
  std::vector<Vec> args;
  args.reserve(node.children.size());
  for (const ExprNodePtr& child : node.children) {
    TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(*child, sel));
    args.push_back(std::move(v));
  }
  {
    Vec typed_out;
    if (TryEvalConversionBuiltin(node, args, n, &typed_out) ||
        TryEvalDisplayBuiltin(node, args, n, &typed_out)) {
      ++stats_.vectorized_nodes;
      return typed_out;
    }
  }
  // Builtins run element-wise on the vectorized operands.
  ++stats_.fallback_nodes;
  std::vector<Value> values;
  values.reserve(n);
  std::vector<Value> row_args(args.size());
  for (size_t k = 0; k < n; ++k) {
    bool null_arg = false;
    for (size_t a = 0; a < args.size(); ++a) {
      row_args[a] = args[a].ValueAt(k);
      if (row_args[a].is_null()) null_arg = true;
    }
    if (null_arg && !overload->null_opaque) {
      values.push_back(Value::Null());
      continue;
    }
    TIOGA2_ASSIGN_OR_RETURN(Value v, overload->eval(row_args));
    values.push_back(std::move(v));
  }
  Vec out = Vec::OwnedBoxed(std::move(values));
  PromoteIfUniform(&out);
  return out;
}

Result<Selection> BatchEvaluator::FilterTrue(const ExprNode& pred, const Selection& sel) {
  if (pred.kind == ExprNode::Kind::kBinary && pred.binary_op == BinaryOp::kAnd) {
    // Conjunct narrowing: rows rejected by the left conjunct never see the
    // right one. (A row where the left conjunct is null is also dropped:
    // null AND x is never true.)
    TIOGA2_ASSIGN_OR_RETURN(Selection left, FilterTrue(*pred.children[0], sel));
    if (left.empty()) return left;
    return FilterTrue(*pred.children[1], left);
  }
  if (pred.kind == ExprNode::Kind::kBinary && pred.binary_op == BinaryOp::kOr) {
    TIOGA2_ASSIGN_OR_RETURN(Selection left_true, FilterTrue(*pred.children[0], sel));
    Selection rest;
    rest.reserve(sel.size() - left_true.size());
    std::set_difference(sel.begin(), sel.end(), left_true.begin(), left_true.end(),
                        std::back_inserter(rest));
    TIOGA2_ASSIGN_OR_RETURN(Selection right_true, FilterTrue(*pred.children[1], rest));
    Selection out;
    out.reserve(left_true.size() + right_true.size());
    std::merge(left_true.begin(), left_true.end(), right_true.begin(),
               right_true.end(), std::back_inserter(out));
    return out;
  }
  TIOGA2_ASSIGN_OR_RETURN(Vec v, Eval(pred, sel));
  Selection out;
  for (size_t k = 0; k < sel.size(); ++k) {
    if (!v.IsNull(k) && ReadBool(v, k)) out.push_back(sel[k]);
  }
  return out;
}

}  // namespace tioga2::expr
