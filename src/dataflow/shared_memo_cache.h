#ifndef TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
#define TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dataflow/memo_cache.h"

namespace tioga2::dataflow {

/// A cross-evaluator memo tier keyed by stamp alone — the "M viewers of one
/// dashboard cost ~1× the evaluation work" cache of the paper's multi-user
/// picture (§7). Where a MemoCache holds at most one entry per *box id* of
/// one program, this tier holds entries for whole *subcomputations*: two
/// sessions whose programs contain the same box subgraph over the same
/// catalog state compute the same stamp (stamps hash box type, parameters,
/// catalog salt, and input stamps — never box ids, see dataflow/stamp.h), so
/// the second session finds the first session's result here and skips the
/// entire subtree evaluation.
///
/// Safety rests on the stamp contract: a stamp is a pure function of the
/// program + catalog state, and box firing is a deterministic function of the
/// stamped inputs, independent of execution policy. Two evaluators producing
/// the same stamp therefore produce byte-identical outputs, which makes
/// handing one's entry to the other invisible to every downstream consumer —
/// stamps, fingerprints, and rendered pixels are unchanged (asserted by
/// runtime_determinism_test and session_server_test).
///
/// Concurrency (DESIGN.md §13): the cache is split into min(64, capacity)
/// shards by stamp, each a mutex-guarded hash index on its own cache lines,
/// so concurrent lookups of different stamps rarely meet on one lock. Each
/// shard evicts its least recently used entry: a hit stamps its entry with
/// the shard's recency clock (one word in a line the hit already reads),
/// and an insert into a full shard evicts the entry with the oldest stamp.
/// That is exact LRU without a linked list, whose splice would write three
/// or four other entries' cache lines on every hit. The shard capacities
/// sum to exactly `capacity`. Entries are shared_ptrs, so an evicted entry
/// a reader already holds stays alive until it lets go.
///
/// Entries whose stamps have gone stale (a table-version bump changes every
/// downstream stamp) are never looked up again and simply age out; there is
/// no explicit invalidation, because a stale stamp can never be recomputed
/// by a correct evaluator. Lookup chain position: the fire-or-adopt core
/// (dataflow::FireOrAdopt) consults the per-session MemoCache first
/// (id-keyed, cheapest), then this tier, then fires; fired entries are
/// published to both.
class SharedMemoCache {
 public:
  /// Counter snapshot (also surfaced through runtime::Metrics JSON).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  explicit SharedMemoCache(size_t capacity = 4096);
  SharedMemoCache(const SharedMemoCache&) = delete;
  SharedMemoCache& operator=(const SharedMemoCache&) = delete;

  /// The entry published under `stamp`, or null. A hit becomes its shard's
  /// most recently used entry.
  MemoCache::EntryPtr Lookup(uint64_t stamp);

  /// Publishes `entry` under its own stamp. If the stamp is already present
  /// the existing entry is kept (both are byte-identical by the stamp
  /// contract) and refreshed; otherwise the entry is inserted, evicting the
  /// shard's least recently used entry when the shard is at capacity.
  void Insert(const MemoCache::EntryPtr& entry);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  struct Slot {
    MemoCache::EntryPtr entry;
    uint64_t last_used = 0;  // the shard's clock at the latest hit or insert
  };
  /// One independently locked LRU. Aligned so neighbouring shards never
  /// share a cache line; the lock and everything a hit writes come first,
  /// on one line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    uint64_t clock = 0;  // recency clock, advanced by every hit and insert
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    size_t capacity = 0;
    std::unordered_map<uint64_t, Slot> index;
  };

  Shard& ShardOf(uint64_t stamp);

  const size_t capacity_;
  const size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
