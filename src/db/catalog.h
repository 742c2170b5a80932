#ifndef TIOGA2_DB_CATALOG_H_
#define TIOGA2_DB_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/relation.h"

namespace tioga2::db {

/// A typed record of one single-tuple §8 update — the unit of incremental
/// invalidation. Emitted by Catalog::UpdateRow and consumed by the dataflow
/// engines' delta-propagation path (dataflow/delta.h): `row` is the position
/// of the edited tuple in the table's row order (updates never reorder), and
/// the version pair lets an engine verify that a memoized entry really
/// corresponds to the pre-update table before maintaining it incrementally.
struct TableDelta {
  std::string table;
  size_t row = 0;
  Tuple old_tuple;
  Tuple new_tuple;
  uint64_t old_version = 0;
  uint64_t new_version = 0;
};

/// Observes catalog mutations. The storage engine (storage/storage_engine.h)
/// implements this to mirror every mutation into its write-ahead log and its
/// snapshot shadow state; the catalog itself stays storage-agnostic.
/// Callbacks fire after the mutation has been applied, on the mutating
/// thread, with the post-mutation state.
class CatalogListener {
 public:
  virtual ~CatalogListener() = default;
  virtual void OnRegisterTable(const std::string& name,
                               const RelationPtr& relation, uint64_t version) = 0;
  virtual void OnReplaceTable(const std::string& name,
                              const RelationPtr& relation, uint64_t version) = 0;
  virtual void OnUpdateRow(const TableDelta& delta,
                           const RelationPtr& relation) = 0;
  /// `version_at_drop` is the dropped table's final version — the floor a
  /// same-named recreation must start above.
  virtual void OnDropTable(const std::string& name, uint64_t version_at_drop) = 0;
  virtual void OnSaveProgram(const std::string& name,
                             const std::string& serialized) = 0;
};

/// The system catalog: named base tables plus saved programs. This plays the
/// role POSTGRES plays for Tioga-2 — "for every relation known to the
/// Tioga-2 system there is a box of the same name" (§4), and "Save Program:
/// save the current program in the database" (Figure 2).
///
/// Each table carries a version counter bumped on every update; the dataflow
/// engine uses it to invalidate memoized box outputs after a §8 update.
/// Versions are monotonic per *name*, not per table object: dropping a table
/// records its final version as a floor, and a same-named recreation starts
/// above it. (Without the floor, a recreated table would restart at version 1
/// and a memo entry stamped against the old table's version 1 would be
/// silently — and wrongly — considered fresh.)
///
/// Concurrency (DESIGN.md §13): every const read is served from an IMMUTABLE
/// snapshot, a std::shared_ptr<const Snapshot> republished under a small
/// mutex after each mutation. Mutators are NOT internally synchronized
/// against each other — the caller serializes them (SessionServer holds
/// catalog_mu_) — but a mutator may run concurrently with any number of
/// readers: a replaced snapshot lives until its last reader drops it.
///
/// Readers rarely touch the mutex. Each publish carries a process-unique
/// generation number, and every thread keeps a one-slot cache of the last
/// {generation, snapshot} it read; a read compares generations and takes the
/// mutex only when the catalog has changed since this thread last looked.
///
/// A multi-step read that must see ONE consistent catalog state — e.g. an
/// evaluation that stamps against TableVersion and later fetches GetTable —
/// brackets itself in a ReadPin, which holds the snapshot current at
/// construction for every read on that thread until destruction. Reads
/// outside any ReadPin see the current snapshot per call, which is
/// consistent enough for single-shot queries and gives read-your-writes to
/// mutating threads (the mutation republished the snapshot before
/// returning).
class Catalog {
 public:
  Catalog();
  ~Catalog();

  // Catalogs are identity objects shared by reference.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

 private:
  struct Snapshot;
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

 public:
  /// Holds the snapshot current at construction for EVERY read this thread
  /// makes on this catalog until destruction (frames nest; the innermost
  /// pin for a given catalog wins). The SessionServer brackets each
  /// Access::kRead handler in one, so stamping (TableVersion) and fetching
  /// (GetTable) cannot straddle a concurrent writer's publish, without
  /// holding a reader lock across the whole request. The pin owns a
  /// reference, so the snapshot outlives any mutation made meanwhile.
  class ReadPin {
   public:
    explicit ReadPin(const Catalog& catalog);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    friend class Catalog;
    const Catalog* catalog_;
    SnapshotPtr snapshot_;
    ReadPin* prev_;  // enclosing frame (thread-local stack)
  };

  /// Registers a new table; fails if the name is taken.
  Status RegisterTable(const std::string& name, RelationPtr relation);

  /// Replaces the contents of an existing table (schema may not change) and
  /// bumps its version. This is the install step of the §8 update machinery.
  Status ReplaceTable(const std::string& name, RelationPtr relation);

  /// Replaces one row of an existing table with `tuple` (type-checked
  /// against the schema), bumps the version, and returns the TableDelta
  /// describing the edit — the §8 single-tuple install step. Equivalent to
  /// ReplaceTable with a relation differing in one row, but tells the
  /// dataflow layer exactly what changed so it can propagate a delta
  /// instead of recomputing.
  Result<TableDelta> UpdateRow(const std::string& name, size_t row, Tuple tuple);

  /// Removes a table.
  Status DropTable(const std::string& name);

  /// Looks up a table by name.
  Result<RelationPtr> GetTable(const std::string& name) const;

  /// True iff a table named `name` exists.
  bool HasTable(const std::string& name) const;

  /// The version counter of a table (starts at 1; bumped by ReplaceTable).
  Result<uint64_t> TableVersion(const std::string& name) const;

  /// Names of all tables, sorted (the "menu of all tables available", §3).
  std::vector<std::string> ListTables() const;

  /// Stores a serialized program under `name`, overwriting silently (Save
  /// Program, Figure 2).
  void SaveProgram(const std::string& name, std::string serialized);

  /// Fetches a saved program.
  Result<std::string> GetProgram(const std::string& name) const;

  /// Names of all saved programs, sorted.
  std::vector<std::string> ListPrograms() const;

  /// Installs (or clears, with nullptr) the single mutation listener. The
  /// listener must outlive the catalog or be cleared first.
  void SetListener(CatalogListener* listener) { listener_ = listener; }

  /// The per-name version floors recorded by DropTable (see class comment).
  /// Write-side state: call only while holding the writer's exclusive lock.
  const std::map<std::string, uint64_t>& version_floors() const {
    return version_floors_;
  }

  // ---- Recovery-only entry points (storage/storage_engine.h) ----
  //
  // These bypass the listener (recovery must not re-log what it replays) and
  // set versions exactly as recorded, because memoization stamps derive from
  // table versions (TableBox::CacheSalt) and the recovery tests assert
  // byte-identical stamps across a restart.

  /// Installs `relation` under `name` at exactly `version`, creating or
  /// overwriting. No listener notification.
  Status RestoreTable(const std::string& name, RelationPtr relation,
                      uint64_t version);

  /// Reinstates a recorded version floor (keeps the higher of the two if one
  /// is already present). No listener notification.
  void RestoreVersionFloor(const std::string& name, uint64_t version);

 private:
  struct TableEntry {
    RelationPtr relation;
    uint64_t version = 1;
  };
  /// The immutable unit of publication: a full copy of the read-visible
  /// state. Cheap to build — relations are shared by pointer, only the maps
  /// are copied — and mutation rates are human-interaction rates.
  struct Snapshot {
    std::map<std::string, TableEntry> tables;
    std::map<std::string, std::string> programs;
  };

  /// Copies the write-side maps into a fresh snapshot and publishes it under
  /// a new generation. Called at the end of every mutator, on the mutating
  /// thread; the replaced snapshot is freed when its last reader drops it.
  void PublishSnapshot();

  /// One thread's cache of the last snapshot it read (see Current()).
  struct ThreadSlot;
  static std::shared_ptr<ThreadSlot>& ThisThreadSlot();

  /// The current snapshot, through this thread's one-slot generation cache:
  /// takes mu_ only when the catalog has been republished since this thread
  /// last read it. The returned pointer shares ownership with the slot, so
  /// holding it costs no traffic on a cache line other threads touch.
  SnapshotPtr Current() const;

  /// The snapshot reads on this thread should use: the innermost ReadPin's
  /// if one is live for this catalog, else Current().
  SnapshotPtr ReadSnapshot() const;

  // Write-side authoritative state; mutators read and update these directly
  // (serialized by the caller), readers never touch them.
  std::map<std::string, TableEntry> tables_;
  std::map<std::string, std::string> programs_;
  /// name -> version the table had when it was last dropped.
  std::map<std::string, uint64_t> version_floors_;
  CatalogListener* listener_ = nullptr;

  // Read-side published state. generation_ is stored under mu_ with
  // release order and loaded without it, so a reader whose cached
  // generation still matches skips the mutex.
  mutable std::mutex mu_;
  SnapshotPtr snapshot_;  // guarded by mu_; never null
  std::atomic<uint64_t> generation_{0};
};

}  // namespace tioga2::db

#endif  // TIOGA2_DB_CATALOG_H_
