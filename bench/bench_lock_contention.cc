// Lock-contention reproduction for the DESIGN.md §13 read paths: sweeps
// shared-memo-cache lookup throughput and catalog name-resolution throughput
// at 1 / 8 / 32 reader threads, comparing the sharded-LRU memo tier and the
// thread-cached catalog snapshots against in-bench baselines that model the
// older synchronization (one mutex around the memo tier, a readers-writer
// lock around the catalog).
//
//   bench_lock_contention [--ops=N] [--entries=N] [--tables=N]
//                         [--smoke] [--out=PATH]
//
// Thread t's i-th lookup is entry Mix(t*1000003 + i) mod N (stamp
// Mix(Mix(t*1000003 + i) mod N)): a per-thread pseudo-random walk, so
// threads do not march over neighbouring entries in lockstep. Every sweep
// point runs kRepetitions times, interleaved across thread counts so host
// drift hits all points alike; the JSON records the median and p10/p90 of
// each point, plus a spin-loop probe of how much parallelism the host
// actually delivered during the run.
//
// --smoke shrinks the op counts for CI (scripts/check.sh `contention`) and
// turns on the gate assertions: the median 8-thread throughput must hold
// parity with the median 1-thread throughput (margin below) — i.e. adding
// readers must not collapse the structure back to serialized — and every
// lookup must hit and every resolution find its table. On a 1-core host the
// gate is parity, since time-slicing cannot add throughput. Emits
// bench_out/lock_contention.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "dataflow/memo_cache.h"
#include "dataflow/shared_memo_cache.h"
#include "db/catalog.h"
#include "db/relation.h"

namespace tioga2::bench {
namespace {

/// Parity margin for the smoke gate: on one core, T threads time-slice one
/// structure, so aggregate throughput should match one thread; the margin
/// absorbs scheduler noise on a loaded CI box.
constexpr double kSmokeParityMargin = 0.75;

/// Repetitions of every sweep point; the gate reads their median.
constexpr size_t kRepetitions = 5;

struct Config {
  size_t ops_per_thread = 400000;
  size_t entries = 4096;   // shared-cache population
  size_t tables = 64;      // catalog population
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
    if (const char* v = value_of(arg, "--ops")) {
      config.ops_per_thread = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--entries")) {
      config.entries = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--tables")) {
      config.tables = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(arg, "--out")) {
      config.out = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (config.smoke) {
    config.ops_per_thread = 60000;
    config.entries = 1024;
    config.tables = 32;
  }
  if (config.out.empty()) config.out = OutDir() + "/lock_contention.json";
  return config;
}

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer: deterministic per-thread stamp sequence.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Thread `t`'s `i`-th key in [0, n): a per-thread pseudo-random walk.
size_t KeyIndex(size_t t, size_t i, size_t n) {
  return static_cast<size_t>(Mix(t * 1000003 + i) % n);
}

/// One timed run: aggregate throughput and the sum of the ops' results.
struct SweepRun {
  double ops_per_sec = 0;
  uint64_t sink = 0;
};

/// Runs `op` ops_per_thread times on each of `threads` threads. `op(t, i)`
/// returns 1 on success; the sum lands in SweepRun::sink, which also keeps
/// the ops observable to the optimizer.
template <typename Op>
SweepRun Sweep(size_t threads, size_t ops_per_thread, Op op) {
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t local = 0;
      for (size_t i = 0; i < ops_per_thread; ++i) local += op(t, i);
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double total = static_cast<double>(threads) * static_cast<double>(ops_per_thread);
  return SweepRun{seconds > 0 ? total / seconds : 0.0, sink.load()};
}

std::atomic<uint64_t> spin_sink{0};  // keeps the spin loops observable

void Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  spin_sink.fetch_add(x, std::memory_order_relaxed);
}

/// A fixed spin timed on one thread and then on `threads` threads at once:
/// parallelism = threads x single / parallel, the number of CPUs the host
/// actually gave the run (1.0 on one core, `threads` on an idle many-core
/// host).
double ParallelismProbe(size_t threads, uint64_t iterations) {
  auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  auto start = std::chrono::steady_clock::now();
  Spin(iterations);
  double single = ms_since(start);
  start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) workers.emplace_back(Spin, iterations);
  for (auto& w : workers) w.join();
  double parallel = ms_since(start);
  return parallel > 0 ? static_cast<double>(threads) * single / parallel : 0.0;
}

/// Nearest-rank quantile of `values` (copied, so callers keep their order).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[rank];
}

/// The pre-§13 memo tier in miniature: one mutex around an unordered_map,
/// hit bookkeeping under the lock — what SharedMemoCache::Lookup used to do.
class MutexMemoBaseline {
 public:
  void Insert(uint64_t stamp, dataflow::MemoCache::EntryPtr entry) {
    std::lock_guard<std::mutex> lock(mu_);
    index_[stamp] = std::move(entry);
  }
  dataflow::MemoCache::EntryPtr Lookup(uint64_t stamp) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(stamp);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, dataflow::MemoCache::EntryPtr> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// One sweep point: every repetition's throughput for the structure under
/// test and for its baseline.
struct SweepPoint {
  size_t threads = 0;
  std::vector<double> ops;
  std::vector<double> baseline_ops;
};

std::string SpreadJson(const char* name, const std::vector<double>& values) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\":%.0f,\"%s_p10\":%.0f,\"%s_p90\":%.0f", name,
                Quantile(values, 0.5), name, Quantile(values, 0.1), name,
                Quantile(values, 0.9));
  return buffer;
}

std::string SweepJson(const std::vector<SweepPoint>& points) {
  std::string json = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) json += ',';
    json += "{\"threads\":" + std::to_string(points[i].threads) + "," +
            SpreadJson("ops_per_sec", points[i].ops) + "," +
            SpreadJson("baseline_ops_per_sec", points[i].baseline_ops) + "}";
  }
  json += "]";
  return json;
}

int Run(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  ReportHeader("lock-contention (DESIGN.md §13)",
               "read-dominated hot paths must scale with reader threads");
  std::printf("  ops/thread=%zu entries=%zu tables=%zu repetitions=%zu%s\n",
              config.ops_per_thread, config.entries, config.tables,
              kRepetitions, config.smoke ? " (smoke)" : "");

  const std::vector<size_t> thread_counts = {1, 8, 32};

  // ---- Workload 1: shared-memo lookup (hot path of every box eval) ----
  // Twice the population in capacity: each shard holds its share of the
  // capacity, and the sweep times hits on resident entries, so no shard
  // may overflow from the luck of the hash.
  dataflow::SharedMemoCache shared(2 * config.entries);
  MutexMemoBaseline baseline;
  for (size_t s = 0; s < config.entries; ++s) {
    auto entry = std::make_shared<dataflow::MemoCache::Entry>();
    entry->stamp = Mix(s);
    shared.Insert(entry);
    baseline.Insert(entry->stamp, entry);
  }

  // ---- Workload 2: catalog name resolution (stamp + fetch per request) ----
  db::Catalog catalog;
  std::vector<std::string> names;
  for (size_t i = 0; i < config.tables; ++i) {
    auto relation = db::MakeRelation({db::Column{"v", types::DataType::kInt}},
                                     {{types::Value::Int(static_cast<int64_t>(i))}});
    std::string name = "T" + std::to_string(i);
    MustOk(catalog.RegisterTable(name, Must(std::move(relation), "relation")),
           "RegisterTable");
    names.push_back(name);
  }
  std::shared_mutex catalog_mu;  // models the old per-request reader lock

  auto memo_op = [&](size_t t, size_t i) -> uint64_t {
    uint64_t stamp = Mix(KeyIndex(t, i, config.entries));
    return shared.Lookup(stamp) != nullptr ? 1 : 0;
  };
  auto memo_baseline_op = [&](size_t t, size_t i) -> uint64_t {
    uint64_t stamp = Mix(KeyIndex(t, i, config.entries));
    return baseline.Lookup(stamp) != nullptr ? 1 : 0;
  };
  // The SessionServer kRead path: one ReadPin, then the TableVersion +
  // GetTable pair every TableBox evaluation performs.
  auto resolve_op = [&](size_t t, size_t i) -> uint64_t {
    const std::string& name = names[KeyIndex(t, i, names.size())];
    db::Catalog::ReadPin pin(catalog);
    auto version = catalog.TableVersion(name);
    return version.ok() && catalog.GetTable(name).ok() ? 1 : 0;
  };
  // Baseline: the same reads under a shared_lock, as the SessionServer took
  // before readers pinned snapshots.
  auto resolve_baseline_op = [&](size_t t, size_t i) -> uint64_t {
    const std::string& name = names[KeyIndex(t, i, names.size())];
    std::shared_lock<std::shared_mutex> lock(catalog_mu);
    auto version = catalog.TableVersion(name);
    return version.ok() && catalog.GetTable(name).ok() ? 1 : 0;
  };

  std::vector<SweepPoint> memo(thread_counts.size());
  std::vector<SweepPoint> resolve(thread_counts.size());
  size_t short_sinks = 0;  // sweeps where some op missed
  auto run = [&](size_t threads, auto op, std::vector<double>* out) {
    SweepRun result = Sweep(threads, config.ops_per_thread, op);
    if (result.sink != threads * config.ops_per_thread) ++short_sinks;
    out->push_back(result.ops_per_sec);
  };
  for (size_t rep = 0; rep < kRepetitions; ++rep) {
    for (size_t p = 0; p < thread_counts.size(); ++p) {
      size_t threads = thread_counts[p];
      memo[p].threads = resolve[p].threads = threads;
      run(threads, memo_op, &memo[p].ops);
      run(threads, memo_baseline_op, &memo[p].baseline_ops);
      run(threads, resolve_op, &resolve[p].ops);
      run(threads, resolve_baseline_op, &resolve[p].baseline_ops);
    }
  }
  for (const SweepPoint& point : memo) {
    std::printf("  memo    %2zu threads: sharded LRU %12.0f ops/s | mutex  %12.0f ops/s (medians)\n",
                point.threads, Quantile(point.ops, 0.5),
                Quantile(point.baseline_ops, 0.5));
  }
  for (const SweepPoint& point : resolve) {
    std::printf("  catalog %2zu threads: pinned     %12.0f ops/s | rwlock %12.0f ops/s (medians)\n",
                point.threads, Quantile(point.ops, 0.5),
                Quantile(point.baseline_ops, 0.5));
  }

  const size_t probe_threads = thread_counts[1];
  double parallelism =
      ParallelismProbe(probe_threads, config.smoke ? 20000000 : 100000000);
  std::printf("  parallelism probe: %.2f of %zu spinning threads ran at once "
              "(%u hardware threads)\n",
              parallelism, probe_threads, std::thread::hardware_concurrency());

  std::string json = "{\"config\":{";
  json += "\"ops_per_thread\":" + std::to_string(config.ops_per_thread);
  json += ",\"entries\":" + std::to_string(config.entries);
  json += ",\"tables\":" + std::to_string(config.tables);
  json += ",\"repetitions\":" + std::to_string(kRepetitions);
  json += ",\"smoke\":" + std::string(config.smoke ? "true" : "false");
  json += ",\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += "},\"parallelism_probe\":{\"threads\":" +
          std::to_string(probe_threads);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ",\"parallelism\":%.3f}", parallelism);
  json += buffer;
  json += ",\"memo_lookup\":" + SweepJson(memo);
  json += ",\"catalog_resolve\":" + SweepJson(resolve);
  json += ",\"short_sinks\":" + std::to_string(short_sinks);
  json += "}";
  WriteJsonReport(config.out, json);
  std::printf("  -> %s\n", config.out.c_str());

  // Smoke assertions (scripts/check.sh `contention`).
  int failures = 0;
  if (config.smoke) {
    auto gate = [&failures](const char* what, const std::vector<SweepPoint>& points) {
      double one = Quantile(points[0].ops, 0.5);
      double eight = Quantile(points[1].ops, 0.5);
      if (eight < kSmokeParityMargin * one) {
        std::fprintf(stderr,
                     "SMOKE FAIL: %s median 8-thread throughput %.0f < "
                     "%.2f x median 1-thread %.0f (collapsed to serialized)\n",
                     what, eight, kSmokeParityMargin, one);
        ++failures;
      }
    };
    gate("memo_lookup", memo);
    gate("catalog_resolve", resolve);
    if (short_sinks != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: %zu sweeps had a lookup miss or a failed "
                   "resolve (every op must succeed)\n",
                   short_sinks);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tioga2::bench

int main(int argc, char** argv) { return tioga2::bench::Run(argc, argv); }
