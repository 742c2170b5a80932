// Ablation: expression evaluation strategies. Display expressions are
// evaluated once per tuple per render; two optimizations move work off the
// per-tuple path: (1) folding constant subtrees (color ramps, fixed
// geometry), and (2) vectorized batch evaluation of computed attributes
// over the columnar view. This bench measures both against their scalar
// baselines and records the batch speedup in bench_out/.

#include "bench/bench_common.h"

#include <chrono>

#include "db/operators.h"
#include "display/display_relation.h"
#include "expr/optimizer.h"
#include "expr/parser.h"

namespace tioga2::bench {
namespace {

// A display expression with a large constant core (folds to two nodes) and
// a small data-dependent part.
constexpr const char* kHeavyExpr =
    "circle(0.02 + 0.01 * 2.0, lerp_color(rgb(30, 70, 200), rgb(200, 30, 30), "
    "clamp(altitude / (1000.0 + 500.0 * 2.0), 0.0, 1.0)), true) + "
    "offset(point(), 0.1 * 3.0, 0.2 * 2.0)";

expr::TypeEnv Env() {
  return expr::MakeSchemaTypeEnv({{"altitude", types::DataType::kFloat}});
}

void Report() {
  ReportHeader("Ablation: expression constant folding",
               "per-tuple display expressions with constant subtrees (§5.1)");
  expr::ExprNodePtr ast = Must(expr::ParseExpr(kHeavyExpr), "parse");
  MustOk(expr::AnalyzeExpr(ast.get(), Env()), "analyze");
  std::function<size_t(const expr::ExprNode&)> count_nodes =
      [&](const expr::ExprNode& node) {
        size_t n = 1;
        for (const auto& child : node.children) n += count_nodes(*child);
        return n;
      };
  size_t before = count_nodes(*ast);
  size_t folded = Must(expr::FoldConstants(ast.get()), "fold");
  size_t after = count_nodes(*ast);
  std::printf("  expression nodes: %zu before folding, %zu after (%zu folds)\n",
              before, after, folded);
}

void BM_EvalUnfolded(benchmark::State& state) {
  expr::ExprNodePtr ast = Must(expr::ParseExpr(kHeavyExpr), "parse");
  MustOk(expr::AnalyzeExpr(ast.get(), Env()), "analyze");
  db::Tuple row{types::Value::Float(1234.0)};
  expr::TupleAccessor accessor(row);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::EvalExpr(*ast, accessor));
  }
}
BENCHMARK(BM_EvalUnfolded);

void BM_EvalFolded(benchmark::State& state) {
  expr::ExprNodePtr ast = Must(expr::ParseExpr(kHeavyExpr), "parse");
  MustOk(expr::AnalyzeExpr(ast.get(), Env()), "analyze");
  Must(expr::FoldConstants(ast.get()), "fold");
  db::Tuple row{types::Value::Float(1234.0)};
  expr::TupleAccessor accessor(row);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::EvalExpr(*ast, accessor));
  }
}
BENCHMARK(BM_EvalFolded);

void BM_RestrictSimplePredicate(benchmark::State& state) {
  // End-to-end effect on a Restrict whose predicate has constant parts.
  Environment env;
  MustOk(env.LoadDemoData(20000, 5), "load");
  auto stations = Must(env.catalog().GetTable("Stations"), "table");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::Restrict(stations, "altitude > 100.0 * 2.0 + 300.0"));
  }
}
BENCHMARK(BM_RestrictSimplePredicate);

// ---- Vectorized computed-attribute ("method") evaluation ----

constexpr const char* kComputedAttr =
    "altitude / 100.0 + latitude * 2.0 - abs(longitude)";

display::DisplayRelation StationsDisplay(size_t rows) {
  auto stations = Must(data::MakeStations(rows, 7), "stations");
  auto rel = Must(display::DisplayRelation::WithDefaults("Stations", stations),
                  "display");
  return Must(rel.AddAttribute("score", kComputedAttr), "score");
}

void BM_ComputedAttrScalar(benchmark::State& state) {
  // Per-tuple AttributeValue: rebuilds the accessor and walks the AST row by
  // row — the pre-columnar "method" evaluation path.
  display::DisplayRelation rel = StationsDisplay(10000);
  for (auto _ : state) {
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      benchmark::DoNotOptimize(rel.AttributeValue(r, "score"));
    }
  }
  state.counters["rows"] = static_cast<double>(rel.num_rows());
}
BENCHMARK(BM_ComputedAttrScalar);

void BM_ComputedAttrBatch(benchmark::State& state) {
  display::DisplayRelation rel = StationsDisplay(10000);
  rel.base()->columnar();  // materialize outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel.AttributeValues("score"));
  }
  state.counters["rows"] = static_cast<double>(rel.num_rows());
}
BENCHMARK(BM_ComputedAttrBatch);

/// Hand-timed batch-vs-scalar comparison for the computed-attribute path,
/// exported as JSON (see README "Running the benchmarks").
void WriteBatchReport() {
  display::DisplayRelation rel = StationsDisplay(50000);
  rel.base()->columnar();
  auto time_us = [](auto&& fn) {
    constexpr int kIters = 15;
    fn();  // warm-up
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - start).count() / kIters;
  };
  double scalar_us = time_us([&] {
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      benchmark::DoNotOptimize(rel.AttributeValue(r, "score"));
    }
  });
  double batch_us =
      time_us([&] { benchmark::DoNotOptimize(rel.AttributeValues("score")); });
  std::string json = "{\"rows\":" + std::to_string(rel.num_rows()) +
                     ",\"expr\":\"" + kComputedAttr + "\"" +
                     ",\"computed_attr\":{\"scalar_us\":" + std::to_string(scalar_us) +
                     ",\"batch_us\":" + std::to_string(batch_us) +
                     ",\"speedup\":" + std::to_string(scalar_us / batch_us) + "}}";
  WriteJsonReport(OutDir() + "/ablation_expr_batch.json", json);
  std::printf(
      "  computed attribute: %.0f us scalar vs %.0f us batch (%.2fx) "
      "-> bench_out/ablation_expr_batch.json\n",
      scalar_us, batch_us, scalar_us / batch_us);
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  tioga2::bench::WriteBatchReport();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
