#include "db/catalog.h"

#include <algorithm>

namespace tioga2::db {

namespace {

/// Innermost live ReadPin on this thread (across all catalogs; each frame
/// records which catalog it pins, so nested pins of different catalogs
/// coexist).
thread_local Catalog::ReadPin* tl_top_pin = nullptr;

/// Source of snapshot generations. Process-unique, so a thread's cached
/// generation can only ever match the catalog that published it.
std::atomic<uint64_t> g_next_generation{1};

/// Set when this thread's slot is destroyed at thread exit, so a catalog
/// destroyed later on the same thread (say, one with static storage) does
/// not touch it.
thread_local bool tl_slot_destroyed = false;

}  // namespace

struct Catalog::ThreadSlot {
  const Catalog* catalog = nullptr;  // whose snapshot this is
  uint64_t generation = 0;           // 0 is never issued
  SnapshotPtr snapshot;
};

std::shared_ptr<Catalog::ThreadSlot>& Catalog::ThisThreadSlot() {
  // The slot is itself reference-counted so that what Current() returns can
  // alias it: copies bump the slot's thread-private count, never the
  // snapshot's, whose count every reading thread would otherwise share.
  struct Holder {
    std::shared_ptr<ThreadSlot> slot = std::make_shared<ThreadSlot>();
    ~Holder() { tl_slot_destroyed = true; }
  };
  thread_local Holder holder;
  return holder.slot;
}

Catalog::Catalog() { PublishSnapshot(); }

Catalog::~Catalog() {
  // This thread's slot would otherwise keep the last snapshot it read of
  // this catalog, and every relation in it, alive until the thread reads
  // another catalog. Other threads' slots are out of reach; each holds at
  // most one snapshot, released when that thread reads again or exits.
  if (tl_slot_destroyed) return;
  std::shared_ptr<ThreadSlot>& slot = ThisThreadSlot();
  if (slot->catalog == this) slot = std::make_shared<ThreadSlot>();
}

Catalog::ReadPin::ReadPin(const Catalog& catalog)
    : catalog_(&catalog), snapshot_(catalog.Current()), prev_(tl_top_pin) {
  tl_top_pin = this;
}

Catalog::ReadPin::~ReadPin() { tl_top_pin = prev_; }

Catalog::SnapshotPtr Catalog::Current() const {
  std::shared_ptr<ThreadSlot>& slot = ThisThreadSlot();
  if (slot->generation != generation_.load(std::memory_order_acquire)) {
    auto fresh = std::make_shared<ThreadSlot>();
    fresh->catalog = this;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fresh->generation = generation_.load(std::memory_order_relaxed);
      fresh->snapshot = snapshot_;
    }
    slot = std::move(fresh);  // pins still holding the old slot keep it alive
  }
  return SnapshotPtr(slot, slot->snapshot.get());
}

Catalog::SnapshotPtr Catalog::ReadSnapshot() const {
  for (ReadPin* pin = tl_top_pin; pin != nullptr; pin = pin->prev_) {
    if (pin->catalog_ == this) return pin->snapshot_;
  }
  return Current();
}

void Catalog::PublishSnapshot() {
  SnapshotPtr fresh = std::make_shared<const Snapshot>(Snapshot{tables_, programs_});
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_.swap(fresh);
    generation_.store(g_next_generation.fetch_add(1, std::memory_order_relaxed),
                      std::memory_order_release);
  }
  // `fresh` now holds the replaced snapshot; it is freed here, outside the
  // lock, unless a reader still holds it.
}

Status Catalog::RegisterTable(const std::string& name, RelationPtr relation) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  // A recreation after a drop continues above the dropped table's final
  // version, so stamps minted against the old incarnation can never match.
  uint64_t version = 1;
  if (auto floor = version_floors_.find(name); floor != version_floors_.end()) {
    version = floor->second + 1;
  }
  auto [it, inserted] = tables_.emplace(name, TableEntry{std::move(relation), version});
  if (!inserted) return Status::AlreadyExists("table '" + name + "' already exists");
  PublishSnapshot();
  if (listener_ != nullptr) {
    listener_->OnRegisterTable(name, it->second.relation, it->second.version);
  }
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name, RelationPtr relation) {
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named '" + name + "'");
  if (!(*it->second.relation->schema() == *relation->schema())) {
    return Status::TypeError("ReplaceTable may not change the schema of '" + name +
                             "': have " + it->second.relation->schema()->ToString() +
                             ", got " + relation->schema()->ToString());
  }
  it->second.relation = std::move(relation);
  ++it->second.version;
  PublishSnapshot();
  if (listener_ != nullptr) {
    listener_->OnReplaceTable(name, it->second.relation, it->second.version);
  }
  return Status::OK();
}

Result<TableDelta> Catalog::UpdateRow(const std::string& name, size_t row,
                                      Tuple tuple) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named '" + name + "'");
  const RelationPtr& current = it->second.relation;
  if (row >= current->num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range in '" +
                              name + "'");
  }
  TableDelta delta;
  delta.table = name;
  delta.row = row;
  delta.old_tuple = current->row(row);
  delta.new_tuple = tuple;
  delta.old_version = it->second.version;
  RelationBuilder builder(current->schema());
  builder.Reserve(current->num_rows());
  for (size_t r = 0; r < current->num_rows(); ++r) {
    if (r == row) {
      // The checked path validates the new tuple's arity and types.
      TIOGA2_RETURN_IF_ERROR(builder.AddRow(tuple));
    } else {
      builder.AddRowUnchecked(current->row(r));
    }
  }
  it->second.relation = builder.Build();
  ++it->second.version;
  delta.new_version = it->second.version;
  PublishSnapshot();
  if (listener_ != nullptr) {
    listener_->OnUpdateRow(delta, it->second.relation);
  }
  return delta;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named '" + name + "'");
  const uint64_t version_at_drop = it->second.version;
  // Remember the final version so a same-named recreation stays monotonic.
  uint64_t& floor = version_floors_[name];
  floor = std::max(floor, version_at_drop);
  tables_.erase(it);
  PublishSnapshot();
  if (listener_ != nullptr) listener_->OnDropTable(name, version_at_drop);
  return Status::OK();
}

Result<RelationPtr> Catalog::GetTable(const std::string& name) const {
  SnapshotPtr snap = ReadSnapshot();
  auto it = snap->tables.find(name);
  if (it == snap->tables.end())
    return Status::NotFound("no table named '" + name + "'");
  return it->second.relation;
}

bool Catalog::HasTable(const std::string& name) const {
  return ReadSnapshot()->tables.count(name) > 0;
}

Result<uint64_t> Catalog::TableVersion(const std::string& name) const {
  SnapshotPtr snap = ReadSnapshot();
  auto it = snap->tables.find(name);
  if (it == snap->tables.end())
    return Status::NotFound("no table named '" + name + "'");
  return it->second.version;
}

std::vector<std::string> Catalog::ListTables() const {
  SnapshotPtr snap = ReadSnapshot();
  std::vector<std::string> names;
  names.reserve(snap->tables.size());
  for (const auto& [name, entry] : snap->tables) names.push_back(name);
  return names;
}

void Catalog::SaveProgram(const std::string& name, std::string serialized) {
  std::string& slot = programs_[name];
  slot = std::move(serialized);
  PublishSnapshot();
  if (listener_ != nullptr) listener_->OnSaveProgram(name, slot);
}

Status Catalog::RestoreTable(const std::string& name, RelationPtr relation,
                             uint64_t version) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (relation == nullptr) return Status::InvalidArgument("relation must be non-null");
  tables_[name] = TableEntry{std::move(relation), version};
  PublishSnapshot();
  return Status::OK();
}

void Catalog::RestoreVersionFloor(const std::string& name, uint64_t version) {
  uint64_t& floor = version_floors_[name];
  floor = std::max(floor, version);
}

Result<std::string> Catalog::GetProgram(const std::string& name) const {
  SnapshotPtr snap = ReadSnapshot();
  auto it = snap->programs.find(name);
  if (it == snap->programs.end())
    return Status::NotFound("no program named '" + name + "'");
  return it->second;
}

std::vector<std::string> Catalog::ListPrograms() const {
  SnapshotPtr snap = ReadSnapshot();
  std::vector<std::string> names;
  names.reserve(snap->programs.size());
  for (const auto& [name, program] : snap->programs) names.push_back(name);
  return names;
}

}  // namespace tioga2::db
