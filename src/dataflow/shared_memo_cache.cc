#include "dataflow/shared_memo_cache.h"

#include <algorithm>

namespace tioga2::dataflow {

namespace {

constexpr size_t kMaxShards = 64;
constexpr int kSpinTries = 64;

/// Locks `mu`, first spinning briefly on try_lock: a shard's critical
/// section lasts tens of nanoseconds, far less than the futex sleep and
/// wake a contended std::mutex::lock() pays.
std::unique_lock<std::mutex> LockShard(std::mutex& mu) {
  for (int i = 0; i < kSpinTries; ++i) {
    if (mu.try_lock()) return std::unique_lock<std::mutex>(mu, std::adopt_lock);
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return std::unique_lock<std::mutex>(mu);
}

}  // namespace

SharedMemoCache::SharedMemoCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      num_shards_(std::min(kMaxShards, capacity_)),
      shards_(new Shard[num_shards_]) {
  // Spread the remainder over the first shards so the sum is exact.
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity =
        capacity_ / num_shards_ + (i < capacity_ % num_shards_ ? 1 : 0);
  }
}

SharedMemoCache::Shard& SharedMemoCache::ShardOf(uint64_t stamp) {
  // Fibonacci mix: stamps are already well-distributed hashes, but the low
  // bits of related subtrees can correlate; one multiply decorrelates them.
  stamp *= 0x9E3779B97F4A7C15ull;
  return shards_[(stamp >> 32) % num_shards_];
}

MemoCache::EntryPtr SharedMemoCache::Lookup(uint64_t stamp) {
  Shard& shard = ShardOf(stamp);
  std::unique_lock<std::mutex> lock = LockShard(shard.mu);
  auto it = shard.index.find(stamp);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  it->second.last_used = ++shard.clock;
  return it->second.entry;
}

void SharedMemoCache::Insert(const MemoCache::EntryPtr& entry) {
  if (entry == nullptr) return;
  Shard& shard = ShardOf(entry->stamp);
  MemoCache::EntryPtr evicted;  // released after the lock drops
  std::unique_lock<std::mutex> lock = LockShard(shard.mu);
  // Same stamp ⇒ byte-identical outputs: keep the first publication.
  auto [it, inserted] = shard.index.try_emplace(entry->stamp, Slot{entry, 0});
  it->second.last_used = ++shard.clock;
  if (!inserted) return;
  ++shard.inserts;
  if (shard.index.size() > shard.capacity) {
    // A shard holds capacity/64 entries (64 at the default capacity), and an
    // eviction follows a miss that fired a box, so the scan for the oldest
    // entry is noise beside the work that produced the entry.
    auto victim = std::min_element(
        shard.index.begin(), shard.index.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        });
    evicted = std::move(victim->second.entry);
    shard.index.erase(victim);
    ++shard.evictions;
  }
}

void SharedMemoCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.index.clear();
  }
}

SharedMemoCache::Stats SharedMemoCache::stats() const {
  Stats stats;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.evictions += shard.evictions;
    stats.entries += shard.index.size();
  }
  return stats;
}

size_t SharedMemoCache::size() const { return stats().entries; }

}  // namespace tioga2::dataflow
