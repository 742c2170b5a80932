// Persistence cost and recovery time. Two questions the storage subsystem
// must answer with numbers:
//
//   1. What does WAL durability cost the §8 interactive edit path?
//      UpdateRow throughput with no persistence, and with the WAL at each
//      durability policy (kNone / kFlushEveryN / kFsyncEachRecord), the
//      fsync policy with and without group commit (4 writer threads share
//      the fsyncs). The acceptance bar: kFlushEveryN adds < 10% to the
//      bench_delta_update edit latency.
//
//   2. How fast is recovery, and how does it scale with log length?
//      The fig07 drill-down catalog at 50k stations, recovered from a
//      snapshot plus WAL suffixes of increasing length.
//
// Everything is exported to bench_out/wal_recovery.json so a single run
// leaves a machine-readable record (see EXPERIMENTS.md).

#include "bench/bench_common.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include "storage/storage_engine.h"
#include "testing/fig_programs.h"

namespace tioga2::bench {
namespace {

std::string ScratchDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("tioga2_bench_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Builds the fig07 environment (the delta-update bench's workload) with
/// `extra_stations` and returns it.
std::unique_ptr<Environment> SetUpFig7(size_t extra_stations) {
  auto env = std::make_unique<Environment>();
  MustOk(env->LoadDemoData(extra_stations, 5), "load");
  const testing::FigProgram fig07 = testing::AllFigPrograms()[4];
  MustOk(fig07.build(env.get()), "build fig07");
  return env;
}

/// One persistent edit: nudges the latitude of row `i % rows` of Stations.
void NudgeStation(db::Catalog* catalog, size_t i) {
  auto stations = Must(catalog->GetTable("Stations"), "Stations");
  size_t lat_col = Must(stations->schema()->ColumnIndex("latitude"), "latitude");
  size_t row = i % stations->num_rows();
  db::Tuple tuple = stations->row(row);
  tuple[lat_col] = types::Value::Float(tuple[lat_col].float_value() +
                                       ((i % 2) == 0 ? 0.01 : -0.01));
  Must(catalog->UpdateRow("Stations", row, std::move(tuple)), "update");
}

/// Mean per-edit latency (µs) of `iters` UpdateRow calls on a 4k-station
/// catalog, with the given persistence configuration (or none).
double EditLatencyUs(const char* tag, bool persistent,
                     storage::Durability durability, bool group_commit,
                     int iters) {
  auto env = SetUpFig7(4000);
  std::string dir;
  if (persistent) {
    dir = ScratchDir(std::string("edit_") + tag);
    storage::StorageOptions options;
    options.dir = dir;
    options.wal.durability = durability;
    options.wal.group_commit = group_commit;
    MustOk(env->OpenPersistent(options), "open persistent");
  }
  // Warm-up outside the timer (first edit pays relation columnarization).
  NudgeStation(&env->catalog(), 0);
  auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= iters; ++i) {
    NudgeStation(&env->catalog(), static_cast<size_t>(i));
  }
  auto end = std::chrono::steady_clock::now();
  if (persistent) {
    MustOk(env->ClosePersistent(), "close persistent");
    std::filesystem::remove_all(dir);
  }
  return std::chrono::duration<double, std::micro>(end - start).count() / iters;
}

/// Group-commit is only visible under concurrency: per-edit latency with
/// `threads` writers hammering kFsyncEachRecord appends (each thread edits a
/// distinct private table so the catalog sees one writer per table; the WAL
/// serializes them all).
double FsyncConcurrentUs(bool group_commit, int threads, int iters_per_thread) {
  Environment env;
  MustOk(env.LoadDemoData(100, 5), "load");
  // One private table per thread, same schema as a small edit target.
  for (int t = 0; t < threads; ++t) {
    auto rel = Must(db::MakeRelation({db::Column{"v", types::DataType::kFloat}},
                                     {{types::Value::Float(0.0)}}),
                    "make");
    MustOk(env.catalog().RegisterTable("bench_t" + std::to_string(t), rel),
           "register");
  }
  std::string dir = ScratchDir(group_commit ? "fsync_group" : "fsync_solo");
  storage::StorageOptions options;
  options.dir = dir;
  options.wal.durability = storage::Durability::kFsyncEachRecord;
  options.wal.group_commit = group_commit;
  MustOk(env.OpenPersistent(options), "open persistent");

  // NOTE: Catalog is not synchronized for concurrent writers; each thread
  // therefore owns its table, and UpdateRow touches only that entry. The
  // contention being measured is in the WAL (shared queue + fsync), which is
  // exactly the group-commit question.
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::string table = "bench_t" + std::to_string(t);
      for (int i = 0; i < iters_per_thread; ++i) {
        auto rel = Must(env.catalog().GetTable(table), "get");
        db::Tuple tuple = rel->row(0);
        tuple[0] = types::Value::Float(static_cast<double>(i));
        Must(env.catalog().UpdateRow(table, 0, std::move(tuple)), "update");
      }
    });
  }
  for (auto& w : workers) w.join();
  auto end = std::chrono::steady_clock::now();
  MustOk(env.ClosePersistent(), "close persistent");
  std::filesystem::remove_all(dir);
  return std::chrono::duration<double, std::micro>(end - start).count() /
         (static_cast<double>(threads) * iters_per_thread);
}

/// Builds a 50k-station fig07 catalog, persists it with `wal_edits` logged
/// after the last snapshot, and measures a cold recovery.
double RecoveryMs(size_t wal_edits, size_t* records_replayed) {
  std::string dir = ScratchDir("recover_" + std::to_string(wal_edits));
  {
    auto env = SetUpFig7(50000);
    storage::StorageOptions options;
    options.dir = dir;
    options.wal.durability = storage::Durability::kNone;
    MustOk(env->OpenPersistent(options), "open persistent");
    MustOk(env->Checkpoint(), "checkpoint");  // snapshot covers the base state
    for (size_t i = 0; i < wal_edits; ++i) {
      NudgeStation(&env->catalog(), i);
    }
    MustOk(env->storage()->Sync(), "sync");
    // Abandon without ClosePersistent: recovery must replay the WAL suffix.
    env->catalog().SetListener(nullptr);
    MustOk(env->storage()->Close(), "close wal");
  }
  Environment env;
  storage::StorageOptions options;
  options.dir = dir;
  storage::RecoveryInfo info;
  auto start = std::chrono::steady_clock::now();
  MustOk(env.OpenPersistent(options, &info), "recover");
  auto end = std::chrono::steady_clock::now();
  *records_replayed = info.records_replayed;
  MustOk(env.ClosePersistent(), "close");
  std::filesystem::remove_all(dir);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void Report() {
  ReportHeader("Persistence (WAL + snapshot recovery)",
               "crash-safe catalog: UpdateRow durability cost, recovery time");
  constexpr int kIters = 400;

  double baseline_us = EditLatencyUs("base", false, storage::Durability::kNone,
                                     true, kIters);
  double none_us =
      EditLatencyUs("none", true, storage::Durability::kNone, true, kIters);
  double flush_us = EditLatencyUs("flush", true, storage::Durability::kFlushEveryN,
                                  true, kIters);
  double fsync_us = EditLatencyUs("fsync", true,
                                  storage::Durability::kFsyncEachRecord, true, 80);
  double flush_overhead_pct = (flush_us - baseline_us) / baseline_us * 100.0;

  double solo_us = FsyncConcurrentUs(false, 4, 50);
  double group_us = FsyncConcurrentUs(true, 4, 50);

  std::printf("  UpdateRow edit latency (4k stations, %d edits):\n", kIters);
  std::printf("    no persistence     %8.1f us/edit\n", baseline_us);
  std::printf("    wal kNone          %8.1f us/edit\n", none_us);
  std::printf("    wal kFlushEveryN   %8.1f us/edit  (+%.1f%% vs baseline)\n",
              flush_us, flush_overhead_pct);
  std::printf("    wal kFsyncEach     %8.1f us/edit\n", fsync_us);
  std::printf("  kFsyncEachRecord, 4 concurrent writers:\n");
  std::printf("    no group commit    %8.1f us/edit\n", solo_us);
  std::printf("    group commit       %8.1f us/edit  (%.1fx)\n", group_us,
              solo_us / group_us);

  std::string json = "{\"edit_latency_us\":{";
  json += "\"baseline\":" + std::to_string(baseline_us);
  json += ",\"wal_none\":" + std::to_string(none_us);
  json += ",\"wal_flush_every_n\":" + std::to_string(flush_us);
  json += ",\"wal_fsync_each\":" + std::to_string(fsync_us);
  json += ",\"flush_overhead_pct\":" + std::to_string(flush_overhead_pct);
  json += "},\"group_commit_us\":{";
  json += "\"solo\":" + std::to_string(solo_us);
  json += ",\"group\":" + std::to_string(group_us);
  json += ",\"speedup\":" + std::to_string(solo_us / group_us);
  json += "},\"recovery\":[";

  std::printf("  recovery of 50k-station fig07 catalog (snapshot + WAL suffix):\n");
  bool first = true;
  for (size_t edits : {size_t{0}, size_t{1000}, size_t{5000}, size_t{20000}}) {
    size_t replayed = 0;
    double ms = RecoveryMs(edits, &replayed);
    std::printf("    %6zu logged edits -> %8.1f ms (replayed %zu records)\n",
                edits, ms, replayed);
    if (!first) json += ',';
    first = false;
    json += "{\"wal_edits\":" + std::to_string(edits) +
            ",\"recovery_ms\":" + std::to_string(ms) +
            ",\"records_replayed\":" + std::to_string(replayed) + "}";
  }
  json += "]}";
  WriteJsonReport(OutDir() + "/wal_recovery.json", json);
  std::printf("  -> bench_out/wal_recovery.json\n");
}

void BM_UpdateRowWalFlushEveryN(benchmark::State& state) {
  auto env = SetUpFig7(4000);
  std::string dir = ScratchDir("bm_flush");
  storage::StorageOptions options;
  options.dir = dir;
  options.wal.durability = storage::Durability::kFlushEveryN;
  MustOk(env->OpenPersistent(options), "open persistent");
  size_t i = 0;
  for (auto _ : state) {
    NudgeStation(&env->catalog(), i++);
  }
  MustOk(env->ClosePersistent(), "close");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_UpdateRowWalFlushEveryN);

void BM_UpdateRowNoPersistence(benchmark::State& state) {
  auto env = SetUpFig7(4000);
  size_t i = 0;
  for (auto _ : state) {
    NudgeStation(&env->catalog(), i++);
  }
}
BENCHMARK(BM_UpdateRowNoPersistence);

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) {
  tioga2::bench::Report();
  return tioga2::bench::RunBenchmarks(argc, argv);
}
