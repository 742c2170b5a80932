#ifndef TIOGA2_DATAFLOW_ENGINE_H_
#define TIOGA2_DATAFLOW_ENGINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/delta.h"
#include "dataflow/graph.h"
#include "dataflow/memo_cache.h"
#include "dataflow/shared_memo_cache.h"
#include "db/exec_policy.h"

namespace tioga2::dataflow {

/// How FireOrAdopt produced a box's entry.
enum class BoxOutcome {
  kLocalHit,   // the local MemoCache held the stamp
  kSharedHit,  // adopted from the cross-session SharedMemoCache
  kFired,      // the box fired; its entry was published to both tiers
};

/// Counters for the lazy-vs-eager evaluation ablation and for asserting the
/// paper's incremental-feedback claim ("immediate feedback on the effect of
/// incremental program modifications"). Both schedulers — Engine and
/// runtime::ParallelEngine — report this one type.
struct EngineStats {
  uint64_t boxes_fired = 0;
  uint64_t cache_hits = 0;
  uint64_t shared_hits = 0;     // subset of cache_hits served by the shared tier
  uint64_t evaluations = 0;     // Evaluate() calls
  uint64_t boxes_skipped = 0;   // EvaluateAll: dangling-input boxes not fired
  uint64_t deltas_applied = 0;  // boxes maintained incrementally (kDelta)
  uint64_t delta_fallbacks = 0; // boxes that declined a delta and were evicted

  /// Counts one FireOrAdopt outcome.
  void Record(BoxOutcome outcome) {
    if (outcome == BoxOutcome::kFired) {
      ++boxes_fired;
      return;
    }
    ++cache_hits;
    if (outcome == BoxOutcome::kSharedHit) ++shared_hits;
  }
};

/// A typed invalidation request — the one entry point for telling an engine
/// that base data changed. Callers no longer choose the eviction scope
/// themselves: they describe what happened (everything changed / one table
/// changed / one tuple of one table changed) and the engine picks the
/// cheapest sound strategy — full clear, downstream eviction, or
/// delta propagation with per-box fallback.
class Invalidation {
 public:
  enum class Scope { kAll, kDownstreamOf, kDelta };

  /// Everything may have changed: drop the whole memo cache.
  static Invalidation All() { return Invalidation(Scope::kAll); }

  /// The named table changed in an unspecified way: evict its downstream
  /// closure.
  static Invalidation DownstreamOf(std::string table) {
    Invalidation inv(Scope::kDownstreamOf);
    inv.table_ = std::move(table);
    return inv;
  }

  /// Exactly one tuple changed (a §8 update): propagate the delta through
  /// downstream boxes, falling back to eviction per box.
  static Invalidation Delta(db::TableDelta delta) {
    Invalidation inv(Scope::kDelta);
    inv.table_ = delta.table;
    inv.delta_ = std::move(delta);
    return inv;
  }

  Scope scope() const { return scope_; }
  /// kDownstreamOf / kDelta: the table concerned.
  const std::string& table() const { return table_; }
  /// kDelta only.
  const db::TableDelta& delta() const { return delta_; }

 private:
  explicit Invalidation(Scope scope) : scope_(scope) {}
  Scope scope_;
  std::string table_;
  db::TableDelta delta_;
};

/// What an Invalidate call did.
struct InvalidationResult {
  size_t entries_evicted = 0;
  size_t deltas_applied = 0;   // kDelta: boxes maintained incrementally
  size_t delta_fallbacks = 0;  // kDelta: boxes that declined and were evicted
  /// kDelta: per maintained box, the output edit scripts (one ValueDelta per
  /// output port). Consumers (e.g. the delta renderer) look up the box
  /// feeding their canvas here.
  std::map<std::string, std::vector<ValueDelta>> box_deltas;
  /// Warnings raised by boxes re-fired during delta maintenance.
  std::vector<std::string> warnings;
};

/// FireOrAdopt's answer: the memoized entry and how it was obtained.
struct BoxEvaluation {
  MemoCache::EntryPtr entry;
  BoxOutcome outcome = BoxOutcome::kFired;
};

/// The per-box core of lazy, memoized evaluation — the one place where a
/// box's outputs are either found or computed. Both schedulers call it: the
/// serial Engine from its depth-first walk on the caller's thread, and
/// runtime::ParallelEngine from pool workers once a box's inputs are done.
///
/// `inputs` are the box's incoming edges in port order and `upstream` the
/// memoized entries of their source boxes (same length). The core folds the
/// box's stamp (dataflow/stamp.h), returns the `cache` entry under that
/// stamp if present, else adopts a `shared` tier entry (may be null) into
/// `cache`, else coerces the inputs to the port types, fires the box, checks
/// the output arity and publishes the new entry to both tiers. Fire
/// warnings land in `ctx.warnings`, also when firing fails. Safe to call
/// concurrently for different boxes sharing one cache.
Result<BoxEvaluation> FireOrAdopt(const Box& box, const std::string& box_id,
                                  const std::vector<Edge>& inputs,
                                  const std::vector<MemoCache::EntryPtr>& upstream,
                                  const ExecContext& ctx, MemoCache& cache,
                                  SharedMemoCache* shared);

/// EvaluateAll's skip policy, shared by both schedulers: the boxes of
/// `graph` in topological order, minus those with a dangling input and
/// those downstream of one. Each skipped box is counted in
/// `stats->boxes_skipped` and reported by a warning appended to `warnings`.
Result<std::vector<std::string>> RunnableBoxes(const Graph& graph,
                                               EngineStats* stats,
                                               std::vector<std::string>* warnings);

/// The one implementation of an invalidation request against a memo cache,
/// shared by both engines' Invalidate: kAll clears `cache`; kDownstreamOf
/// evicts the cached entries of the table's downstream closure
/// (BoxesDownstreamOfTable); kDelta runs PropagateDelta with `policy`.
/// Errors are reserved for malformed requests or corrupted state; a delta
/// that merely cannot be applied degrades to eviction and still returns ok.
Result<InvalidationResult> InvalidateCache(
    const Graph& graph, const db::Catalog* catalog, const Invalidation& inv,
    MemoCache& cache, const db::ExecPolicy& policy,
    const std::vector<BoxValue>* encap_inputs = nullptr);

/// Demand-driven, memoizing evaluator for boxes-and-arrows programs: the
/// caller-thread scheduler over FireOrAdopt.
///
/// "Execution is lazy, evaluating only what is required to produce the
/// demanded visualization" (§2): Evaluate(box, port) walks the transitive
/// inputs of `box` depth first and hands each box to FireOrAdopt. Each
/// box's outputs are cached under a stamp that hashes the box's parameters,
/// its inputs' stamps, and any catalog state it reads (table versions); an
/// edit to one box therefore re-fires only the boxes downstream of the
/// edit.
///
/// The memo cache lives in a MemoCache that may be shared with other
/// evaluators (notably runtime::ParallelEngine, the other scheduler over
/// the same core). The Engine itself is not thread-safe: one Engine serves
/// one caller at a time, and concurrency is layered on top by
/// runtime::SessionServer.
class Engine {
 public:
  /// `catalog` must outlive the engine; may be null for graphs without
  /// source boxes. `encap_inputs` binds InputStub boxes when evaluating the
  /// inner graph of an EncapsulatedBox. When `shared_cache` is non-null the
  /// engine memoizes into it instead of a private cache (the pointee must
  /// outlive the engine).
  explicit Engine(const db::Catalog* catalog,
                  const std::vector<BoxValue>* encap_inputs = nullptr,
                  MemoCache* shared_cache = nullptr)
      : catalog_(catalog),
        encap_inputs_(encap_inputs),
        cache_(shared_cache != nullptr ? shared_cache : &owned_cache_) {}

  /// Evaluates one output port (lazy).
  Result<BoxValue> Evaluate(const Graph& graph, const std::string& box_id,
                            size_t output_port);

  /// Evaluates every output of every box in topological order (the eager
  /// baseline for the ablation benchmark). Boxes with dangling inputs (and
  /// boxes downstream of them) cannot fire; they are counted in
  /// stats().boxes_skipped and reported through warnings() (RunnableBoxes).
  Status EvaluateAll(const Graph& graph);

  /// The one invalidation entry point (InvalidateCache on this engine's
  /// cache): kAll clears the cache; kDownstreamOf evicts the table's
  /// downstream closure; kDelta runs delta propagation (PropagateDelta),
  /// maintaining cached outputs box-by-box and evicting only the boxes that
  /// decline.
  Result<InvalidationResult> Invalidate(const Graph& graph,
                                        const Invalidation& inv);

  const EngineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EngineStats{}; }

  /// Per-engine execution policy. When unset the engine resolves
  /// db::DefaultExecPolicy() at each firing (db::SetDefaultExecPolicy is the
  /// process-wide default for callers that never opt in).
  void set_exec_policy(db::ExecPolicy policy) { policy_ = policy; }
  const std::optional<db::ExecPolicy>& exec_policy() const { return policy_; }

  /// Attaches a cross-session shared memo tier (may be null to detach). On a
  /// local-cache miss the engine consults it by stamp before firing, and
  /// publishes every fired entry into it; hits count in both
  /// stats().cache_hits and stats().shared_hits. The pointee must outlive
  /// the engine. See dataflow/shared_memo_cache.h for why trading entries
  /// across sessions is byte-identical by construction.
  void set_shared_cache(SharedMemoCache* shared) { shared_cache_ = shared; }
  SharedMemoCache* shared_cache() const { return shared_cache_; }

  /// The memo cache (shared or owned). Exposed so callers can share it with
  /// a runtime::ParallelEngine or inspect stamps.
  MemoCache& cache() { return *cache_; }
  const MemoCache& cache() const { return *cache_; }

  /// Warnings raised by boxes during the most recent evaluation (e.g. the
  /// Overlay dimension-mismatch warning of §6.1).
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  /// Evaluates all outputs of a box: its inputs depth first, then the box
  /// itself through FireOrAdopt. Returns the immutable cache entry holding
  /// the outputs and the box's stamp.
  Result<MemoCache::EntryPtr> EvaluateBox(const Graph& graph,
                                          const std::string& box_id,
                                          std::vector<std::string>* eval_stack);

  const db::Catalog* catalog_;
  const std::vector<BoxValue>* encap_inputs_ = nullptr;
  MemoCache owned_cache_;
  MemoCache* cache_;  // owned_cache_ or an external shared cache
  SharedMemoCache* shared_cache_ = nullptr;  // optional cross-session tier
  EngineStats stats_;
  std::vector<std::string> warnings_;
  std::optional<db::ExecPolicy> policy_;
};

/// Ids of the source boxes reading `table` plus their transitive downstream
/// closure — the set of boxes whose cached outputs a single-table edit can
/// invalidate. Used by InvalidateCache and PropagateDelta.
std::vector<std::string> BoxesDownstreamOfTable(const Graph& graph,
                                                const std::string& table);

/// Walks the boxes downstream of `delta.table` in topological order,
/// offering each a Box::ApplyDelta fast path against its memoized entry and
/// falling back to eviction for boxes that decline (or whose cached entry
/// does not match the pre-update program). Maintained entries are re-keyed
/// under their post-update stamps, so a subsequent Evaluate sees a warm
/// cache and serial/parallel byte-identity is preserved. InvalidateCache
/// runs it for Invalidation::Delta requests. `catalog`
/// must already reflect the post-update state (delta.new_version installed).
Result<InvalidationResult> PropagateDelta(
    const Graph& graph, const db::Catalog* catalog, const db::TableDelta& delta,
    MemoCache& cache, const db::ExecPolicy& policy,
    const std::vector<BoxValue>* encap_inputs = nullptr);

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_ENGINE_H_
