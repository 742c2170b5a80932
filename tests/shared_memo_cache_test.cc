// Tests for dataflow::SharedMemoCache, the cross-session stamp-keyed memo
// tier: its sharded LRU must never hold more than `capacity` entries, must
// evict the least recently used entry of a full shard, must leave evicted
// entries alive for callers still holding them, and must keep the first
// publication of a stamp.

#include <gtest/gtest.h>

#include <memory>

#include "dataflow/shared_memo_cache.h"

namespace tioga2::dataflow {
namespace {

MemoCache::EntryPtr MakeEntry(uint64_t stamp) {
  auto entry = std::make_shared<MemoCache::Entry>();
  entry->stamp = stamp;
  return entry;
}

TEST(SharedMemoCacheTest, EntriesNeverExceedCapacity) {
  for (size_t capacity : {1, 2, 3, 16, 17, 1000}) {
    SCOPED_TRACE(capacity);
    SharedMemoCache cache(capacity);
    const size_t inserts = 20 * capacity + 100;
    for (uint64_t stamp = 1; stamp <= inserts; ++stamp) {
      cache.Insert(MakeEntry(stamp * 0x9E3779B97F4A7C15ull));
      ASSERT_LE(cache.size(), capacity);
    }
    SharedMemoCache::Stats stats = cache.stats();
    EXPECT_LE(stats.entries, capacity);
    EXPECT_EQ(stats.inserts, inserts);
    EXPECT_EQ(stats.inserts - stats.evictions, stats.entries);
    EXPECT_EQ(cache.capacity(), capacity);
  }
}

TEST(SharedMemoCacheTest, CapacityOneEvictsTheLeastRecentlyUsed) {
  SharedMemoCache cache(1);  // one shard: a single LRU list
  cache.Insert(MakeEntry(7));
  ASSERT_NE(cache.Lookup(7), nullptr);
  cache.Insert(MakeEntry(8));
  EXPECT_EQ(cache.Lookup(7), nullptr);
  EXPECT_NE(cache.Lookup(8), nullptr);
  SharedMemoCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SharedMemoCacheTest, EvictedEntryOutlivesItsEviction) {
  SharedMemoCache cache(1);
  cache.Insert(MakeEntry(1));
  auto held = cache.Lookup(1);
  cache.Insert(MakeEntry(2));  // evicts stamp 1 while the caller holds it
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->stamp, 1u);
}

TEST(SharedMemoCacheTest, FirstPublicationOfAStampWins) {
  SharedMemoCache cache(16);
  auto first = MakeEntry(42);
  cache.Insert(first);
  cache.Insert(MakeEntry(42));
  EXPECT_EQ(cache.Lookup(42), first);
  EXPECT_EQ(cache.stats().inserts, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(42), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace tioga2::dataflow
