// Dictionary-encoded string execution ablation (db/columnar.h dictionaries,
// the comparison lowering in expr/batch.cc, code-hashed joins in
// db/operators.cc, and the columnar group-by in db/aggregates.cc). Three
// categorical workloads over a ~200k-row station relation, each run three
// ways — tuple-at-a-time scalar, vectorized without dictionaries, vectorized
// with dictionaries — plus a fig07 program trace recording how the batch
// counters move with encoding on vs off. Every variant is checked
// cell-identical against the scalar oracle before anything is timed.
// Writes bench_out/dict_strings.json.
//
// Usage:
//   bench_dict_strings [--rows=N] [--smoke] [--out=PATH]
//
// --smoke shrinks the relation for CI (scripts/check.sh `dict-smoke`); the
// correctness assertions and counter assertions are hard failures in every
// mode.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "data/generators.h"
#include "db/aggregates.h"
#include "db/exec_policy.h"
#include "db/operators.h"
#include "expr/batch.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

using types::DataType;
using types::Value;

struct Config {
  size_t rows = 200000;
  bool smoke = false;
  std::string out = "";
};

Config ParseFlags(int argc, char** argv) {
  Config config;
  auto value_of = [](const char* arg, const char* name) -> const char* {
    size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') return arg + len + 1;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = value_of(arg, "--rows")) {
      config.rows = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--out")) {
      config.out = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (config.smoke) config.rows = 20000;
  if (config.out.empty()) config.out = OutDir() + "/dict_strings.json";
  return config;
}

// Five string comparisons (two equalities, one inequality, one range) over
// the two categorical columns, merged through and/or — every one lowers to
// an integer-code lane kernel when `state`/`name` are dictionary-encoded.
constexpr const char* kCategoricalPredicate =
    "state = \"LA\" or state = \"CA\" or "
    "(state >= \"TN\" and state <= \"TX\") or name < \"B\"";

/// Sets the process-default ExecPolicy for a scope — dictionaries are built
/// when a relation first materializes its columnar image, so relations meant
/// to differ in encoding must be *created and warmed* inside this scope.
class PolicyScope {
 public:
  explicit PolicyScope(const db::ExecPolicy& policy)
      : saved_(db::DefaultExecPolicy()) {
    db::SetDefaultExecPolicy(policy);
  }
  ~PolicyScope() { db::SetDefaultExecPolicy(saved_); }

 private:
  db::ExecPolicy saved_;
};

db::ExecPolicy Vectorized() {
  db::ExecPolicy policy;
  policy.vectorized = true;
  return policy;
}

db::ExecPolicy Scalar() {
  db::ExecPolicy policy;
  policy.vectorized = false;
  return policy;
}

template <typename Fn>
double TimeUs(int iters, Fn&& fn) {
  fn();  // warm-up
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() / iters;
}

/// Columns materialize lazily (one call_once per column), consulting the
/// process-default policy at that moment — so "warm under this policy" means
/// touching every column, not just grabbing the table.
void WarmColumns(const db::RelationPtr& rel) {
  for (size_t c = 0; c < rel->num_columns(); ++c) rel->columnar().column(c);
}

/// Builds the station relation and warms its columnar image under the given
/// encoding policy, so one build carries dictionaries and the other does not.
db::RelationPtr BuildStations(size_t rows, bool dict_encode) {
  db::ExecPolicy policy = db::DefaultExecPolicy();
  policy.dict_encode = dict_encode;
  PolicyScope scope(policy);
  auto stations = Must(data::MakeStations(rows, 7), "stations");
  WarmColumns(stations);
  return stations;
}

/// Dimension relation keyed on the station states: one row per distinct
/// state plus two keys no station carries (exercising unmatched probe
/// entries), built under the given encoding policy.
db::RelationPtr BuildStateDim(const db::RelationPtr& stations, bool dict_encode) {
  size_t state_col = stations->num_columns();
  for (size_t c = 0; c < stations->num_columns(); ++c) {
    if (stations->schema()->column(c).name == "state") state_col = c;
  }
  if (state_col >= stations->num_columns()) {
    std::fprintf(stderr, "FATAL: stations relation has no state column\n");
    std::exit(1);
  }
  std::set<std::string> states;
  for (size_t r = 0; r < stations->num_rows(); ++r) {
    states.insert(stations->row(r)[state_col].string_value());
  }
  std::vector<db::Tuple> rows;
  int64_t region = 0;
  for (const std::string& s : states) {
    rows.push_back({Value::String(s), Value::Int(region++)});
  }
  rows.push_back({Value::String("ZZ"), Value::Int(region++)});
  rows.push_back({Value::String(""), Value::Int(region++)});
  db::ExecPolicy policy = db::DefaultExecPolicy();
  policy.dict_encode = dict_encode;
  PolicyScope scope(policy);
  auto dim = Must(db::MakeRelation({db::Column{"state_name", DataType::kString},
                                    db::Column{"region", DataType::kInt}},
                                   rows),
                  "state dim");
  WarmColumns(dim);
  return dim;
}

/// Cell-identity between two relations that tolerates nothing: schema text,
/// row count, per-cell nullness, runtime type, and text must all match.
void MustMatch(const db::Relation& oracle, const db::Relation& got,
               const char* what) {
  bool ok = oracle.schema()->ToString() == got.schema()->ToString() &&
            oracle.num_rows() == got.num_rows();
  for (size_t r = 0; ok && r < oracle.num_rows(); ++r) {
    for (size_t c = 0; ok && c < oracle.num_columns(); ++c) {
      const Value& a = oracle.row(r)[c];
      const Value& b = got.row(r)[c];
      ok = a.is_null() == b.is_null() &&
           (a.is_null() || (a.type() == b.type() && a.ToString() == b.ToString()));
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL %s: output diverged from the scalar oracle\n",
                 what);
    std::exit(1);
  }
}

struct Fig07Trace {
  uint64_t nodes_fallback = 0;
  uint64_t nodes_vectorized = 0;
  uint64_t dict_simd_batches = 0;
  uint64_t dict_columns_built = 0;
};

/// Evaluates the fig07 drill-down program end to end with dictionary
/// encoding on or off and returns the batch counters the run produced.
Fig07Trace TraceFig07(bool dict_encode) {
  const testing::FigProgram* fig7 = nullptr;
  for (const testing::FigProgram& program : testing::AllFigPrograms()) {
    if (program.name.find("fig07") != std::string::npos) fig7 = &program;
  }
  Fig07Trace trace;
  if (fig7 == nullptr) return trace;
  db::ExecPolicy policy = db::DefaultExecPolicy();
  policy.dict_encode = dict_encode;
  PolicyScope scope(policy);
  expr::BatchMetrics::Global().Reset();
  Environment env;
  MustOk(env.LoadDemoData(fig7->extra_stations, fig7->num_days), "fig07 data");
  MustOk(fig7->build(&env), "fig07 build");
  ui::Session& session = env.session();
  MustOk(session.engine().EvaluateAll(session.graph()), "fig07 evaluate");
  expr::BatchMetrics& m = expr::BatchMetrics::Global();
  trace.nodes_fallback = m.nodes_fallback.load();
  trace.nodes_vectorized = m.nodes_vectorized.load();
  trace.dict_simd_batches = m.dict_simd_batches.load();
  trace.dict_columns_built = m.dict_columns_built.load();
  expr::BatchMetrics::Global().Reset();
  return trace;
}

int Run(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  ReportHeader("Dictionary-encoded strings",
               "categorical restrict / group-by / join on integer code lanes "
               "(§4.2 database operations over categorical attributes)");

  auto stations_dict = BuildStations(config.rows, /*dict_encode=*/true);
  auto stations_plain = BuildStations(config.rows, /*dict_encode=*/false);
  const int scalar_iters = config.smoke ? 2 : 3;
  const int vec_iters = config.smoke ? 3 : 10;

  // ---- Workload 1: categorical compound Restrict. -------------------------
  auto predicate_dict = Must(
      db::CompilePredicate(stations_dict->schema(), kCategoricalPredicate),
      "predicate");
  auto predicate_plain = Must(
      db::CompilePredicate(stations_plain->schema(), kCategoricalPredicate),
      "predicate");
  auto r_oracle =
      Must(db::RestrictScalar(stations_dict, predicate_dict), "restrict oracle");
  const uint64_t dict_batches_before =
      expr::BatchMetrics::Global().dict_simd_batches.load();
  MustMatch(*r_oracle,
            *Must(db::Restrict(stations_dict, predicate_dict, Vectorized()),
                  "restrict dict"),
            "restrict(dict)");
  if (expr::BatchMetrics::Global().dict_simd_batches.load() <=
      dict_batches_before) {
    std::fprintf(stderr, "FATAL: restrict(dict) never dispatched a dict batch\n");
    return 1;
  }
  MustMatch(*r_oracle,
            *Must(db::Restrict(stations_plain, predicate_plain, Vectorized()),
                  "restrict plain"),
            "restrict(plain)");
  double restrict_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(db::RestrictScalar(stations_dict, predicate_dict));
  });
  double restrict_plain_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::Restrict(stations_plain, predicate_plain, Vectorized()));
  });
  double restrict_dict_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::Restrict(stations_dict, predicate_dict, Vectorized()));
  });

  // ---- Workload 2: group-by on the string key. ----------------------------
  const std::vector<db::AggSpec> aggs = {
      db::AggSpec{db::AggFn::kCount, "", "n"},
      db::AggSpec{db::AggFn::kAvg, "altitude", "avg_altitude"},
      db::AggSpec{db::AggFn::kMax, "name", "max_name"}};
  auto g_oracle =
      Must(db::GroupBy(stations_dict, {"state"}, aggs, Scalar()), "groupby oracle");
  MustMatch(*g_oracle,
            *Must(db::GroupBy(stations_dict, {"state"}, aggs, Vectorized()),
                  "groupby dict"),
            "groupby(dict)");
  MustMatch(*g_oracle,
            *Must(db::GroupBy(stations_plain, {"state"}, aggs, Vectorized()),
                  "groupby plain"),
            "groupby(plain)");
  double groupby_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(db::GroupBy(stations_dict, {"state"}, aggs, Scalar()));
  });
  double groupby_plain_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::GroupBy(stations_plain, {"state"}, aggs, Vectorized()));
  });
  double groupby_dict_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::GroupBy(stations_dict, {"state"}, aggs, Vectorized()));
  });

  // ---- Workload 3: string-key hash join against a state dimension. --------
  auto dim_dict = BuildStateDim(stations_dict, /*dict_encode=*/true);
  auto dim_plain = BuildStateDim(stations_dict, /*dict_encode=*/false);
  auto j_oracle = Must(
      db::Join(stations_dict, dim_dict, "state = state_name", Scalar()),
      "join oracle");
  const uint64_t remap_before =
      expr::BatchMetrics::Global().dict_remap_fallbacks.load();
  MustMatch(*j_oracle.relation,
            *Must(db::Join(stations_dict, dim_dict, "state = state_name",
                           Vectorized()),
                  "join dict")
                 .relation,
            "join(dict)");
  if (expr::BatchMetrics::Global().dict_remap_fallbacks.load() != remap_before) {
    std::fprintf(stderr, "FATAL: join(dict) fell back to string hashing\n");
    return 1;
  }
  MustMatch(*j_oracle.relation,
            *Must(db::Join(stations_plain, dim_plain, "state = state_name",
                           Vectorized()),
                  "join plain")
                 .relation,
            "join(plain)");
  if (expr::BatchMetrics::Global().dict_remap_fallbacks.load() == remap_before) {
    std::fprintf(stderr, "FATAL: join(plain) did not record its fallback\n");
    return 1;
  }
  double join_scalar_us = TimeUs(scalar_iters, [&] {
    benchmark::DoNotOptimize(
        db::Join(stations_dict, dim_dict, "state = state_name", Scalar()));
  });
  double join_plain_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::Join(stations_plain, dim_plain, "state = state_name", Vectorized()));
  });
  double join_dict_us = TimeUs(vec_iters, [&] {
    benchmark::DoNotOptimize(
        db::Join(stations_dict, dim_dict, "state = state_name", Vectorized()));
  });

  // ---- fig07 trace: counters with encoding on vs off. ---------------------
  Fig07Trace fig_on = TraceFig07(/*dict_encode=*/true);
  Fig07Trace fig_off = TraceFig07(/*dict_encode=*/false);
  if (fig_on.dict_columns_built > 0 && fig_on.dict_simd_batches == 0) {
    std::fprintf(stderr,
                 "FATAL: fig07 built dictionaries but never used them\n");
    return 1;
  }

  auto section = [](const char* name, double scalar_us, double plain_us,
                    double dict_us) {
    return std::string("\"") + name + "\":{" +
           "\"scalar_us\":" + std::to_string(scalar_us) +
           ",\"vectorized_plain_us\":" + std::to_string(plain_us) +
           ",\"vectorized_dict_us\":" + std::to_string(dict_us) +
           ",\"dict_vs_plain\":" + std::to_string(plain_us / dict_us) +
           ",\"dict_vs_scalar\":" + std::to_string(scalar_us / dict_us) + "}";
  };
  std::string json =
      std::string("{\"rows\":") + std::to_string(config.rows) +
      ",\"smoke\":" + (config.smoke ? "true" : "false") +
      ",\"predicate\":\"categorical compound (5 string comparisons)\"," +
      section("restrict", restrict_scalar_us, restrict_plain_us,
              restrict_dict_us) +
      "," +
      section("group_by", groupby_scalar_us, groupby_plain_us, groupby_dict_us) +
      "," + section("join", join_scalar_us, join_plain_us, join_dict_us) +
      ",\"fig07\":{\"dict_on\":{\"nodes_fallback\":" +
      std::to_string(fig_on.nodes_fallback) +
      ",\"nodes_vectorized\":" + std::to_string(fig_on.nodes_vectorized) +
      ",\"dict_simd_batches\":" + std::to_string(fig_on.dict_simd_batches) +
      ",\"dict_columns_built\":" + std::to_string(fig_on.dict_columns_built) +
      "},\"dict_off\":{\"nodes_fallback\":" +
      std::to_string(fig_off.nodes_fallback) +
      ",\"nodes_vectorized\":" + std::to_string(fig_off.nodes_vectorized) +
      ",\"dict_simd_batches\":" + std::to_string(fig_off.dict_simd_batches) +
      ",\"dict_columns_built\":" + std::to_string(fig_off.dict_columns_built) +
      "}}}";
  WriteJsonReport(config.out, json);

  std::printf(
      "  categorical restrict (%zu rows): %.0f us scalar, %.0f us plain "
      "vectorized, %.0f us dict (%.2fx over plain, %.2fx over scalar)\n",
      config.rows, restrict_scalar_us, restrict_plain_us, restrict_dict_us,
      restrict_plain_us / restrict_dict_us,
      restrict_scalar_us / restrict_dict_us);
  std::printf(
      "  state group-by:                  %.0f us scalar, %.0f us plain "
      "vectorized, %.0f us dict (%.2fx over plain, %.2fx over scalar)\n",
      groupby_scalar_us, groupby_plain_us, groupby_dict_us,
      groupby_plain_us / groupby_dict_us, groupby_scalar_us / groupby_dict_us);
  std::printf(
      "  state-key join:                  %.0f us scalar, %.0f us plain "
      "vectorized, %.0f us dict (%.2fx over plain, %.2fx over scalar)\n",
      join_scalar_us, join_plain_us, join_dict_us, join_plain_us / join_dict_us,
      join_scalar_us / join_dict_us);
  std::printf(
      "  fig07 trace: dict on — fallback %llu / vectorized %llu / dict "
      "batches %llu; dict off — fallback %llu / vectorized %llu\n",
      static_cast<unsigned long long>(fig_on.nodes_fallback),
      static_cast<unsigned long long>(fig_on.nodes_vectorized),
      static_cast<unsigned long long>(fig_on.dict_simd_batches),
      static_cast<unsigned long long>(fig_off.nodes_fallback),
      static_cast<unsigned long long>(fig_off.nodes_vectorized));
  std::printf("  -> %s\n", config.out.c_str());
  return 0;
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) { return tioga2::bench::Run(argc, argv); }
