#ifndef TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
#define TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "common/reclaim.h"
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
/// Concurrency (DESIGN.md §13): Lookup is LOCK-FREE. Readers pin the
/// reclamation domain, load the current open-addressed stamp→node table
/// (published with release/acquire ordering), linear-probe it, and copy the
/// hit's EntryPtr while still pinned. Writers (Insert, Clear) serialize on
/// mu_; they install nodes into empty cells, replace evicted cells with a
/// tombstone sentinel that preserves concurrent probe chains, and rebuild the
/// table — retiring the old one through the domain — once tombstones
/// accumulate. Evicted nodes are likewise retired, never deleted inline, so a
/// reader mid-probe can never touch freed memory. Without a domain wired
/// (set_reclamation_domain never called) retired structures are parked until
/// destruction — safe, just unbounded for long-lived cache-less use, which
/// only tests exercise.
///
/// Eviction: the cache is bounded to `capacity` entries with second-chance
/// (clock) replacement — the lock-free hit path cannot splice an LRU list, so
/// hits set a `referenced` bit instead, and the evicting writer walks the LRU
/// tail, moving referenced nodes to the front and evicting the first
/// unreferenced one. Entries whose stamps have gone stale (a table-version
/// bump changes every downstream stamp) are never looked up again and simply
/// age out; there is no explicit invalidation, because a stale stamp can
/// never be recomputed by a correct evaluator. Lookup chain position: the
/// fire-or-adopt core (dataflow::FireOrAdopt) consults the per-session
/// MemoCache first (id-keyed, cheapest), then this tier, then fires; fired
/// entries are published to both.
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

  explicit SharedMemoCache(size_t capacity = 4096,
                           common::ReclamationDomain* domain = nullptr);
  ~SharedMemoCache();
  SharedMemoCache(const SharedMemoCache&) = delete;
  SharedMemoCache& operator=(const SharedMemoCache&) = delete;

  /// Wires the reclamation domain lock-free readers pin. Must be called
  /// before the first concurrent Lookup; the domain must outlive the cache.
  void set_reclamation_domain(common::ReclamationDomain* domain) {
    domain_ = domain;
  }

  /// The entry published under `stamp`, or null. Lock-free: pins the domain,
  /// probes the current table, and marks the hit referenced (second-chance
  /// bit) instead of touching the LRU list.
  MemoCache::EntryPtr Lookup(uint64_t stamp);

  /// Publishes `entry` under its own stamp. If the stamp is already present
  /// the existing entry is kept (both are byte-identical by the stamp
  /// contract) and refreshed; otherwise the entry is inserted, evicting a
  /// second-chance victim when the cache is at capacity.
  void Insert(const MemoCache::EntryPtr& entry);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  /// One published stamp→entry binding. Immutable after installation except
  /// for the second-chance bit; unlinked nodes are retired, not deleted.
  struct Node {
    uint64_t stamp = 0;
    MemoCache::EntryPtr entry;
    std::atomic<bool> referenced{false};
    std::list<Node*>::iterator lru_it;  // writer-side only, guarded by mu_
  };

  /// Open-addressed power-of-two table of atomic node pointers. Cells only
  /// transition empty→node and node→tombstone within one table generation,
  /// so a concurrent reader's probe chain is never broken; tombstones are
  /// compacted away by publishing a rebuilt table.
  struct Table {
    explicit Table(size_t size_pow2)
        : mask(size_pow2 - 1),
          cells(new std::atomic<Node*>[size_pow2]) {
      for (size_t i = 0; i < size_pow2; ++i)
        cells[i].store(nullptr, std::memory_order_relaxed);
    }
    size_t size() const { return mask + 1; }
    const size_t mask;
    std::unique_ptr<std::atomic<Node*>[]> cells;
  };

  static size_t ProbeStart(uint64_t stamp, size_t mask);
  /// The tombstone sentinel: a distinguished address, never dereferenced.
  static Node* Tombstone();

  /// Hands an unlinked object to the domain, or parks it until destruction.
  void RetireNode(Node* node);
  void RetireTable(Table* table);
  /// Rebuilds (same size — capacity bounds live nodes) when live+tombstones
  /// pass 7/8 of the table, publishing the new table and retiring the old.
  /// Caller holds mu_.
  void MaybeRebuildLocked();
  void InstallLocked(Table* table, Node* node);

  common::ReclamationDomain* domain_;
  const size_t capacity_;

  std::atomic<Table*> table_;  // published release, loaded acquire

  mutable std::mutex mu_;   // writers: Insert / Clear / rebuild / LRU list
  std::list<Node*> lru_;    // front = most recently inserted/second-chanced
  size_t tombstones_ = 0;   // dead cells in the current table generation
  std::vector<std::function<void()>> deferred_;  // no-domain fallback

  // Reader-updated counters are atomic; inserts/evictions are writer-side.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  uint64_t inserts_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tioga2::dataflow

#endif  // TIOGA2_DATAFLOW_SHARED_MEMO_CACHE_H_
