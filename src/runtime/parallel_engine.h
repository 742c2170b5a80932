#ifndef TIOGA2_RUNTIME_PARALLEL_ENGINE_H_
#define TIOGA2_RUNTIME_PARALLEL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dataflow/engine.h"
#include "db/exec_policy.h"
#include "dataflow/graph.h"
#include "dataflow/memo_cache.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace tioga2::runtime {

/// A dependency-counting parallel scheduler for boxes-and-arrows programs:
/// the second scheduler over the one fire-or-adopt core,
/// dataflow::FireOrAdopt (the serial dataflow::Engine is the first).
///
/// Evaluate() partitions the transitive input closure of the demanded box
/// into ready sets: every box whose inputs are all available is handed to
/// FireOrAdopt concurrently on the ThreadPool, and a finished box decrements
/// its dependents' counts, releasing them as they become ready. The calling
/// thread participates in draining the ready queue, so evaluation makes
/// progress (and cannot deadlock) even when every pool worker is occupied —
/// e.g. when a SessionServer handler running on the pool evaluates through
/// this engine.
///
/// Stamps, memo lookup, shared-tier adoption, firing and invalidation are
/// the core's, not this class's, so a MemoCache may be shared with a serial
/// Engine: serial and parallel evaluation are bit-identical in both outputs
/// and stamps (asserted by runtime_determinism_test). This class adds only
/// the dependency counting, its locking and the Metrics recording.
///
/// One Evaluate/EvaluateAll call runs at a time per instance (like the
/// serial Engine); concurrency across clients is layered on top by
/// SessionServer, with each session evaluating through its own engine into
/// the shared cache.
class ParallelEngine {
 public:
  /// `catalog` and `pool` must outlive the engine. When `shared_cache` is
  /// non-null the engine memoizes into it instead of a private cache; pass a
  /// serial Engine's cache() to share memoized results across both. Metrics,
  /// if given, receives per-box fire latencies and cache hit/miss counts.
  ParallelEngine(const db::Catalog* catalog, ThreadPool* pool,
                 dataflow::MemoCache* shared_cache = nullptr,
                 Metrics* metrics = nullptr)
      : catalog_(catalog),
        pool_(pool),
        cache_(shared_cache != nullptr ? shared_cache : &owned_cache_),
        metrics_(metrics) {}

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Evaluates one output port, firing independent upstream boxes
  /// concurrently. Identical results and error messages to
  /// dataflow::Engine::Evaluate.
  Result<dataflow::BoxValue> Evaluate(const dataflow::Graph& graph,
                                      const std::string& box_id,
                                      size_t output_port);

  /// Evaluates every runnable box in the graph concurrently. Boxes with
  /// dangling inputs (and boxes downstream of them) are counted in
  /// stats().boxes_skipped and reported through warnings(), matching the
  /// serial Engine.
  Status EvaluateAll(const dataflow::Graph& graph);

  /// The one invalidation entry point (dataflow::InvalidateCache on this
  /// engine's cache), as dataflow::Engine::Invalidate. Delta propagation
  /// runs serially on the calling thread — the cost is O(touched boxes) on a
  /// single edited tuple, far below the plan-building overhead of a parallel
  /// walk — but maintains this engine's cache (shared or owned), so the next
  /// parallel Evaluate sees the maintained entries as cache hits.
  Result<dataflow::InvalidationResult> Invalidate(
      const dataflow::Graph& graph, const dataflow::Invalidation& inv);

  /// Pins the execution policy used by boxes fired through this engine
  /// (and by delta propagation). Unset, every fire resolves
  /// db::DefaultExecPolicy() at fire time.
  void set_exec_policy(db::ExecPolicy policy) { policy_ = policy; }
  const std::optional<db::ExecPolicy>& exec_policy() const { return policy_; }

  /// Attaches a cross-session shared memo tier (null detaches), consulted by
  /// stamp after a local-cache miss and fed by every firing — identical
  /// semantics (and byte-identical results) to
  /// dataflow::Engine::set_shared_cache. The pointee must outlive the
  /// engine.
  void set_shared_cache(dataflow::SharedMemoCache* shared) {
    shared_cache_ = shared;
  }
  dataflow::SharedMemoCache* shared_cache() const { return shared_cache_; }

  /// Tallied under the scheduler lock while an evaluation runs; read it
  /// between evaluations.
  const dataflow::EngineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = dataflow::EngineStats{}; }

  /// The memo cache (shared or owned).
  dataflow::MemoCache& cache() { return *cache_; }
  const dataflow::MemoCache& cache() const { return *cache_; }

  /// Warnings from the most recent evaluation. Fire warnings are sorted by
  /// (box id, text) so the result is deterministic regardless of the firing
  /// interleaving; EvaluateAll skip warnings precede them in topological
  /// order, as in the serial Engine.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  struct Plan;
  struct RunState;

  /// Builds the dependency plan for `targets`: their transitive input
  /// closures, with per-box resolved input edges and dependent lists.
  Status BuildPlan(const dataflow::Graph& graph,
                   const std::vector<std::string>& targets, Plan* plan) const;

  /// Runs a plan to completion on the pool + calling thread. On success,
  /// fills `done` with the cache entry of every box in the plan.
  Status RunPlan(
      Plan* plan,
      std::unordered_map<std::string, dataflow::MemoCache::EntryPtr>* done);

  /// A pool task that claims one ready box, if any, and fires it. Touches
  /// only `state` until a box is claimed, so stale tickets left in the pool
  /// queue after RunPlan returns are harmless.
  std::function<void()> MakeTicket(Plan* plan,
                                   std::shared_ptr<RunState> state);

  /// Evaluates one box through dataflow::FireOrAdopt, records the result,
  /// and releases any dependents that became ready.
  void FireBox(Plan* plan, const std::shared_ptr<RunState>& state,
               const std::string& box_id);

  const db::Catalog* catalog_;
  ThreadPool* pool_;
  dataflow::MemoCache owned_cache_;
  dataflow::MemoCache* cache_;  // owned_cache_ or an external shared cache
  dataflow::SharedMemoCache* shared_cache_ = nullptr;  // cross-session tier
  Metrics* metrics_ = nullptr;

  std::optional<db::ExecPolicy> policy_;

  dataflow::EngineStats stats_;
  std::vector<std::string> warnings_;
};

}  // namespace tioga2::runtime

#endif  // TIOGA2_RUNTIME_PARALLEL_ENGINE_H_
