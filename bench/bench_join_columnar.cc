// Columnar join vs the row-store baseline (ROADMAP "Columnar join").
//
// The equi-join is the §6/§7 wormhole/stitch shape: demo stations joined
// with their observations on station_id. The scalar policy is the oracle —
// it hashes Value keys tuple-at-a-time and materializes concatenated output
// tuples. The vectorized policy hashes typed key cells straight from the
// inputs' ColumnVectors and emits a join view (two row-id vectors, no tuple
// materialization). A third timing charges the view with gathering every
// output column through the selection, so the speedup is honest about late
// materialization rather than just deferring it.
//
// Writes bench_out/join_columnar.json (recorded in EXPERIMENTS.md).

#include "bench/bench_common.h"

#include <chrono>

#include "db/operators.h"

namespace tioga2::bench {
namespace {

constexpr db::ExecPolicy kScalar{false};
constexpr db::ExecPolicy kVectorized{true};

db::RelationPtr Stations(size_t extra) {
  return Must(data::MakeStations(extra, 7), "stations");
}

db::RelationPtr Observations(const db::Relation& stations, size_t days) {
  return Must(
      data::MakeObservations(stations, types::Date::FromYmd(1985, 1, 1), days, 8),
      "observations");
}

/// Gathers every output column of a join result (for a view this is the
/// deferred materialization cost; for the scalar baseline the tuples already
/// exist and this builds the columnar image the next operator would ask for).
size_t TouchAllColumns(const db::RelationPtr& relation) {
  size_t total = 0;
  for (size_t c = 0; c < relation->num_columns(); ++c) {
    total += relation->columnar().column(c).num_rows;
  }
  return total;
}

void WriteJoinReport() {
  ReportHeader("Join columnar",
               "equi-join stations x observations (columnar vs row-store)");
  auto stations = Stations(50000);           // 50,007 rows
  auto observations = Observations(*stations, 2);  // ~100k rows
  const char* predicate = "station_id = station_id_2";
  // Inputs arrive columnar in the steady state (upstream operators already
  // materialized their columns); pay that once, outside the timings.
  stations->columnar();
  observations->columnar();

  auto time_us = [](auto&& fn) {
    constexpr int kIters = 10;
    fn();  // warm-up
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) benchmark::DoNotOptimize(fn());
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - start).count() / kIters;
  };

  auto scalar_join = [&] {
    return Must(db::Join(stations, observations, predicate, kScalar), "join");
  };
  auto vectorized_join = [&] {
    return Must(db::Join(stations, observations, predicate, kVectorized), "join");
  };

  double scalar_us = time_us(scalar_join);
  double vectorized_us = time_us(vectorized_join);
  double vectorized_gather_us = time_us([&] {
    auto joined = vectorized_join();
    return TouchAllColumns(joined.relation);
  });

  auto reference = scalar_join();
  auto columnar = vectorized_join();
  if (reference.relation->num_rows() != columnar.relation->num_rows() ||
      reference.relation->ToString(32) != columnar.relation->ToString(32)) {
    std::fprintf(stderr, "FATAL: columnar join diverged from row-store oracle\n");
    std::exit(1);
  }

  std::string json = "{";
  json += "\"left_rows\":" + std::to_string(stations->num_rows());
  json += ",\"right_rows\":" + std::to_string(observations->num_rows());
  json += ",\"out_rows\":" + std::to_string(reference.relation->num_rows());
  json += ",\"row_store_us\":" + std::to_string(scalar_us);
  json += ",\"columnar_view_us\":" + std::to_string(vectorized_us);
  json += ",\"columnar_gathered_us\":" + std::to_string(vectorized_gather_us);
  json += ",\"speedup_view\":" + std::to_string(scalar_us / vectorized_us);
  json += ",\"speedup_gathered\":" + std::to_string(scalar_us / vectorized_gather_us);
  json += "}";
  WriteJsonReport(OutDir() + "/join_columnar.json", json);
  std::printf(
      "  join %zu x %zu -> %zu rows: %.0f us row-store vs %.0f us columnar "
      "view (%.2fx), %.0f us with all columns gathered (%.2fx) "
      "-> bench_out/join_columnar.json\n",
      stations->num_rows(), observations->num_rows(),
      reference.relation->num_rows(), scalar_us, vectorized_us,
      scalar_us / vectorized_us, vectorized_gather_us,
      scalar_us / vectorized_gather_us);
}

void BM_JoinRowStore(benchmark::State& state) {
  auto stations = Stations(static_cast<size_t>(state.range(0)));
  auto observations = Observations(*stations, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::Join(stations, observations, "station_id = station_id_2", kScalar));
  }
  state.counters["left"] = static_cast<double>(stations->num_rows());
  state.counters["right"] = static_cast<double>(observations->num_rows());
}
BENCHMARK(BM_JoinRowStore)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_JoinColumnar(benchmark::State& state) {
  auto stations = Stations(static_cast<size_t>(state.range(0)));
  auto observations = Observations(*stations, 2);
  stations->columnar();
  observations->columnar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::Join(stations, observations, "station_id = station_id_2", kVectorized));
  }
  state.counters["left"] = static_cast<double>(stations->num_rows());
  state.counters["right"] = static_cast<double>(observations->num_rows());
}
BENCHMARK(BM_JoinColumnar)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_JoinColumnarGathered(benchmark::State& state) {
  auto stations = Stations(static_cast<size_t>(state.range(0)));
  auto observations = Observations(*stations, 2);
  stations->columnar();
  observations->columnar();
  for (auto _ : state) {
    auto joined = Must(
        db::Join(stations, observations, "station_id = station_id_2", kVectorized),
        "join");
    benchmark::DoNotOptimize(TouchAllColumns(joined.relation));
  }
}
BENCHMARK(BM_JoinColumnarGathered)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_NestedLoopBatched(benchmark::State& state) {
  // Non-equi predicate: the BatchEvaluator cross-product path vs the scalar
  // tuple-at-a-time loop (state.range(1) flips the policy).
  auto stations = Stations(static_cast<size_t>(state.range(0)));
  auto observations = Observations(*stations, 1);
  const db::ExecPolicy policy{state.range(1) != 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::NestedLoopJoin(
        stations, observations, "station_id = station_id_2 and temperature > 60.0",
        policy));
  }
}
BENCHMARK(BM_NestedLoopBatched)->Args({100, 0})->Args({100, 1})->Args({300, 0})->Args({300, 1});

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::WriteJoinReport();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
