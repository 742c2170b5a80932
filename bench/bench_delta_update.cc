// §8 delta propagation: after a single-tuple update, maintaining memoized
// box outputs in place (Invalidation::Delta) versus evicting the table's
// downstream closure and recomputing (Invalidation::DownstreamOf).
//
// Reproduction: the Figure 7 drill-down program over an enlarged Stations
// table; one station is nudged per iteration, as a §8 click-update would.
// The hand-timed comparison is exported to bench_out/delta_update.json so a
// single run leaves a machine-readable record of the speedup.

#include "bench/bench_common.h"

#include <chrono>

#include "dataflow/engine.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

/// Builds the Figure 7 program (map + dots + labels) over `extra_stations`
/// demo stations and warms the canvas.
std::unique_ptr<Environment> SetUpFig7(size_t extra_stations) {
  auto env = std::make_unique<Environment>();
  MustOk(env->LoadDemoData(extra_stations, 5), "load");
  const testing::FigProgram fig07 = testing::AllFigPrograms()[4];
  MustOk(fig07.build(env.get()), "build fig07");
  MustOk(env->session().EvaluateCanvas("fig7").status(), "warm");
  return env;
}

/// One §8 edit: nudges the latitude of the first Louisiana station (the
/// restricted subset fig07 actually draws) by an alternating offset, so
/// every iteration really changes a drawn tuple.
struct StationNudge {
  size_t row = 0;
  size_t lat_col = 0;
  double base_lat = 0;
  int flip = 0;

  static StationNudge Find(Environment* env) {
    StationNudge nudge;
    auto stations = Must(env->catalog().GetTable("Stations"), "Stations");
    size_t state_col = Must(stations->schema()->ColumnIndex("state"), "state");
    nudge.lat_col = Must(stations->schema()->ColumnIndex("latitude"), "latitude");
    for (size_t r = 0; r < stations->num_rows(); ++r) {
      const types::Value& state = stations->at(r, state_col);
      if (state.is_string() && state.string_value() == "LA") {
        nudge.row = r;
        nudge.base_lat = stations->at(r, nudge.lat_col).float_value();
        return nudge;
      }
    }
    std::fprintf(stderr, "FATAL: no LA station in demo data\n");
    std::exit(1);
  }

  db::TableDelta Apply(Environment* env) {
    auto stations = Must(env->catalog().GetTable("Stations"), "Stations");
    db::Tuple tuple = stations->row(row);
    tuple[lat_col] =
        types::Value::Float(base_lat + ((flip++ % 2) == 0 ? 0.01 : 0.0));
    return Must(env->catalog().UpdateRow("Stations", row, std::move(tuple)),
                "update");
  }
};

void Report() {
  ReportHeader("Section 8 (delta)",
               "update propagation: recompute downstream vs delta-maintain");
  // Per-edit cost of the propagation + re-evaluation step only: the
  // single-row install (Catalog::UpdateRow, an O(table) splice) is identical
  // on both paths and is excluded so the number isolates what the
  // Invalidation API actually changes.
  constexpr size_t kStations = 50000;
  auto measure = [&](bool use_delta) {
    auto env = SetUpFig7(kStations);
    ui::Session& session = env->session();
    StationNudge nudge = StationNudge::Find(env.get());
    constexpr int kIters = 20;
    double total_us = 0;
    for (int i = 0; i < kIters + 1; ++i) {
      // Hold the superseded table snapshot across the timed region: when the
      // memo cache lets go of the pre-update outputs, this reference keeps
      // the old 50k-row relation alive so its O(table) teardown — identical
      // on both paths — runs at the end of the iteration, outside the timer,
      // just like the UpdateRow splice above it.
      auto superseded = Must(env->catalog().GetTable("Stations"), "snapshot");
      db::TableDelta delta = nudge.Apply(env.get());
      auto start = std::chrono::steady_clock::now();
      dataflow::Invalidation inv =
          use_delta ? dataflow::Invalidation::Delta(std::move(delta))
                    : dataflow::Invalidation::DownstreamOf("Stations");
      MustOk(session.engine().Invalidate(session.graph(), inv).status(),
             "invalidate");
      MustOk(session.EvaluateCanvas("fig7").status(), "evaluate");
      auto end = std::chrono::steady_clock::now();
      if (i > 0) {  // first iteration is warm-up
        total_us += std::chrono::duration<double, std::micro>(end - start).count();
      }
    }
    return total_us / kIters;
  };

  double recompute_us = measure(false);
  double delta_us = measure(true);
  double speedup = recompute_us / delta_us;

  std::string json = "{\"extra_stations\":" + std::to_string(kStations) +
                     ",\"recompute_us\":" + std::to_string(recompute_us) +
                     ",\"delta_us\":" + std::to_string(delta_us) +
                     ",\"speedup\":" + std::to_string(speedup) + "}";
  WriteJsonReport(OutDir() + "/delta_update.json", json);
  std::printf(
      "  single-station edit on fig07 (%zu stations): %.0f us full recompute "
      "vs %.0f us delta (%.1fx) -> bench_out/delta_update.json\n",
      kStations, recompute_us, delta_us, speedup);
}

void BM_RecomputeAfterEdit(benchmark::State& state) {
  auto env = SetUpFig7(static_cast<size_t>(state.range(0)));
  ui::Session& session = env->session();
  StationNudge nudge = StationNudge::Find(env.get());
  for (auto _ : state) {
    db::TableDelta delta = nudge.Apply(env.get());
    MustOk(session.engine()
               .Invalidate(session.graph(),
                           dataflow::Invalidation::DownstreamOf(delta.table))
               .status(),
           "evict");
    benchmark::DoNotOptimize(session.EvaluateCanvas("fig7"));
  }
  state.counters["stations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RecomputeAfterEdit)->Arg(4000)->Arg(50000);

void BM_DeltaAfterEdit(benchmark::State& state) {
  auto env = SetUpFig7(static_cast<size_t>(state.range(0)));
  ui::Session& session = env->session();
  StationNudge nudge = StationNudge::Find(env.get());
  for (auto _ : state) {
    db::TableDelta delta = nudge.Apply(env.get());
    MustOk(session.engine()
               .Invalidate(session.graph(),
                           dataflow::Invalidation::Delta(std::move(delta)))
               .status(),
           "delta");
    benchmark::DoNotOptimize(session.EvaluateCanvas("fig7"));
  }
  state.counters["stations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DeltaAfterEdit)->Arg(4000)->Arg(50000);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
