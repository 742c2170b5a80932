// SIMD kernel tier ablation (expr/simd/). The batch evaluator's typed loops
// can be served by explicit lane kernels at SSE2/AVX2 width; this bench
// measures the three execution tiers — tuple-at-a-time scalar, vectorized
// typed loops, vectorized + SIMD kernels — on the fig03-style station
// workloads: a wide numeric compound Restrict and a computed ("method")
// attribute. Writes bench_out/simd_kernels.json.

#include "bench/bench_common.h"

#include <chrono>

#include "data/generators.h"
#include "db/exec_policy.h"
#include "db/operators.h"
#include "display/display_relation.h"
#include "expr/simd/simd.h"

namespace tioga2::bench {
namespace {

constexpr size_t kRows = 200000;

// Every node is SIMD-eligible under a dense selection (float + - * /, one
// comparison), so the whole predicate runs as lane kernels when the tier is
// on and as typed loops when it is pinned off — the purest kernel-vs-loop
// comparison the operator layer can stage.
constexpr const char* kCompoundPredicate =
    "altitude * 0.004 + latitude * latitude * 0.02 "
    "- longitude * altitude * 0.0001 "
    "+ (altitude - 500.0) * (latitude - 30.0) * 0.001 "
    "+ altitude / 250.0 - latitude / (longitude + 200.0) >= 12.0";

constexpr const char* kComputedAttr =
    "altitude / 100.0 + latitude * 2.0 - longitude * 0.5 "
    "+ (altitude - 200.0) * 0.01 * (latitude + 5.0)";

db::ExecPolicy TierPolicy(db::SimdLevel level) {
  db::ExecPolicy policy;
  policy.vectorized = true;
  policy.simd = level;
  return policy;
}

/// Sets the process-default ExecPolicy for a scope (the computed-attribute
/// path reads the default; Restrict takes the policy explicitly).
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

template <typename Fn>
double TimeUs(int iters, Fn&& fn) {
  fn();  // warm-up
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() / iters;
}

void WriteReport() {
  ReportHeader("SIMD kernel tiers",
               "batch evaluation of compound predicates and computed "
               "attributes (§5.1, §6.1)");
  std::printf("  dispatch: best level on this machine = %s\n",
              expr::simd::LevelName(expr::simd::BestLevel()));

  auto stations = Must(data::MakeStations(kRows, 7), "stations");
  stations->columnar();  // materialize the columns outside the timed region
  auto predicate =
      Must(db::CompilePredicate(stations->schema(), kCompoundPredicate),
           "predicate");

  const db::ExecPolicy vec = TierPolicy(db::SimdLevel::kScalar);
  const db::ExecPolicy simd = TierPolicy(db::SimdLevel::kAuto);

  double r_scalar_us = TimeUs(
      3, [&] { benchmark::DoNotOptimize(db::RestrictScalar(stations, predicate)); });
  double r_vec_us = TimeUs(
      10, [&] { benchmark::DoNotOptimize(db::Restrict(stations, predicate, vec)); });
  double r_simd_us = TimeUs(
      10, [&] { benchmark::DoNotOptimize(db::Restrict(stations, predicate, simd)); });

  auto display = Must(display::DisplayRelation::WithDefaults("Stations", stations),
                      "display");
  display::DisplayRelation scored =
      Must(display.AddAttribute("score", kComputedAttr), "score");
  double a_scalar_us = TimeUs(3, [&] {
    for (size_t r = 0; r < scored.num_rows(); ++r) {
      benchmark::DoNotOptimize(scored.AttributeValue(r, "score"));
    }
  });
  double a_vec_us = TimeUs(10, [&] {
    PolicyScope scope(vec);
    benchmark::DoNotOptimize(scored.AttributeValues("score"));
  });
  double a_simd_us = TimeUs(10, [&] {
    PolicyScope scope(simd);
    benchmark::DoNotOptimize(scored.AttributeValues("score"));
  });

  std::string json = std::string("{\"rows\":") + std::to_string(kRows) +
                     ",\"simd_level\":\"" +
                     expr::simd::LevelName(expr::simd::BestLevel()) + "\"" +
                     ",\"compound_restrict\":{\"predicate\":\"" +
                     kCompoundPredicate + "\"" +
                     ",\"scalar_us\":" + std::to_string(r_scalar_us) +
                     ",\"vectorized_us\":" + std::to_string(r_vec_us) +
                     ",\"simd_us\":" + std::to_string(r_simd_us) +
                     ",\"simd_vs_vectorized\":" + std::to_string(r_vec_us / r_simd_us) +
                     ",\"simd_vs_scalar\":" + std::to_string(r_scalar_us / r_simd_us) +
                     "},\"computed_attr\":{\"expr\":\"" + kComputedAttr + "\"" +
                     ",\"scalar_us\":" + std::to_string(a_scalar_us) +
                     ",\"vectorized_us\":" + std::to_string(a_vec_us) +
                     ",\"simd_us\":" + std::to_string(a_simd_us) +
                     ",\"simd_vs_vectorized\":" + std::to_string(a_vec_us / a_simd_us) +
                     ",\"simd_vs_scalar\":" + std::to_string(a_scalar_us / a_simd_us) +
                     "}}";
  WriteJsonReport(OutDir() + "/simd_kernels.json", json);
  std::printf(
      "  compound restrict (%zu rows): %.0f us scalar, %.0f us vectorized, "
      "%.0f us simd (%.2fx over vectorized)\n",
      kRows, r_scalar_us, r_vec_us, r_simd_us, r_vec_us / r_simd_us);
  std::printf(
      "  computed attribute:           %.0f us scalar, %.0f us vectorized, "
      "%.0f us simd (%.2fx over vectorized)\n",
      a_scalar_us, a_vec_us, a_simd_us, a_vec_us / a_simd_us);
  std::printf("  -> bench_out/simd_kernels.json\n");
}

void BM_CompoundRestrictScalar(benchmark::State& state) {
  auto stations = Must(data::MakeStations(50000, 7), "stations");
  auto predicate =
      Must(db::CompilePredicate(stations->schema(), kCompoundPredicate), "pred");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::RestrictScalar(stations, predicate));
  }
}
BENCHMARK(BM_CompoundRestrictScalar);

void BM_CompoundRestrictVectorized(benchmark::State& state) {
  auto stations = Must(data::MakeStations(50000, 7), "stations");
  stations->columnar();
  auto predicate =
      Must(db::CompilePredicate(stations->schema(), kCompoundPredicate), "pred");
  const db::ExecPolicy policy = TierPolicy(db::SimdLevel::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Restrict(stations, predicate, policy));
  }
}
BENCHMARK(BM_CompoundRestrictVectorized);

void BM_CompoundRestrictSimd(benchmark::State& state) {
  auto stations = Must(data::MakeStations(50000, 7), "stations");
  stations->columnar();
  auto predicate =
      Must(db::CompilePredicate(stations->schema(), kCompoundPredicate), "pred");
  const db::ExecPolicy policy = TierPolicy(db::SimdLevel::kAuto);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::Restrict(stations, predicate, policy));
  }
}
BENCHMARK(BM_CompoundRestrictSimd);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::WriteReport();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
