// ShardedLruCache semantics: LRU eviction order, charge accounting,
// pinned handles surviving eviction/erase, shard distribution,
// zero-capacity pass-through — plus the disk-component contract that a
// compaction-deleted table's blocks leave the block cache with it.

#include "flodb/common/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/disk_component.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/memtable.h"

namespace flodb {
namespace {

// Values are heap ints; the deleter counts invocations so tests can pin
// down exactly when entries die.
int g_deleted = 0;

void CountingDeleter(const Slice& /*key*/, void* value) {
  delete static_cast<int*>(value);
  ++g_deleted;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override { g_deleted = 0; }

  // Inserts key -> heap int(v) with `charge` and releases the handle.
  void Insert(ShardedLruCache& cache, const std::string& key, int v, size_t charge = 1) {
    cache.Release(cache.Insert(Slice(key), new int(v), charge, &CountingDeleter));
  }

  // Looks up key; returns the value or -1 on miss. Releases the handle.
  int Get(ShardedLruCache& cache, const std::string& key) {
    ShardedLruCache::Handle* handle = cache.Lookup(Slice(key));
    if (handle == nullptr) {
      return -1;
    }
    const int v = *static_cast<int*>(cache.Value(handle));
    cache.Release(handle);
    return v;
  }
};

TEST_F(CacheTest, InsertLookupRoundTrip) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  Insert(cache, "b", 2);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "b"), 2);
  EXPECT_EQ(Get(cache, "missing"), -1);
  EXPECT_EQ(cache.TotalEntries(), 2u);
}

TEST_F(CacheTest, InsertReplacesExistingKey) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  Insert(cache, "a", 2);
  EXPECT_EQ(Get(cache, "a"), 2);
  EXPECT_EQ(cache.TotalEntries(), 1u);
  EXPECT_EQ(g_deleted, 1);  // the replaced value died
}

TEST_F(CacheTest, EraseRemovesEntry) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  cache.Erase(Slice("a"));
  EXPECT_EQ(Get(cache, "a"), -1);
  EXPECT_EQ(g_deleted, 1);
  cache.Erase(Slice("a"));  // absent key: no-op
  EXPECT_EQ(g_deleted, 1);
}

TEST_F(CacheTest, ChargeAccounting) {
  ShardedLruCache cache(1 << 20);
  Insert(cache, "small", 1, 100);
  Insert(cache, "large", 2, 5000);
  EXPECT_EQ(cache.TotalCharge(), 5100u);
  cache.Erase(Slice("small"));
  EXPECT_EQ(cache.TotalCharge(), 5000u);
  cache.Erase(Slice("large"));
  EXPECT_EQ(cache.TotalCharge(), 0u);
}

TEST_F(CacheTest, LruEvictionOrder) {
  // All keys in one shard so per-shard capacity applies deterministically:
  // probe keys until four land in shard 0, then cap that shard tightly.
  // Per-shard capacity = ceil(48/16) = 3 entries of charge 1.
  ShardedLruCache cache(48);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 4 && i < 10000; ++i) {
    std::string candidate = "k" + std::to_string(i);
    if (cache.ShardOf(Slice(candidate)) == 0) {
      keys.push_back(candidate);
    }
  }
  ASSERT_EQ(keys.size(), 4u);
  Insert(cache, keys[0], 0);
  Insert(cache, keys[1], 1);
  Insert(cache, keys[2], 2);
  // Touch keys[0]: keys[1] becomes the LRU victim.
  EXPECT_EQ(Get(cache, keys[0]), 0);
  Insert(cache, keys[3], 3);
  EXPECT_EQ(Get(cache, keys[1]), -1);  // evicted
  EXPECT_EQ(Get(cache, keys[0]), 0);
  EXPECT_EQ(Get(cache, keys[2]), 2);
  EXPECT_EQ(Get(cache, keys[3]), 3);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST_F(CacheTest, PinnedHandleSurvivesEviction) {
  // One shard again for deterministic capacity pressure.
  ShardedLruCache cache(16);  // per-shard capacity: 1 entry of charge 1
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 5 && i < 10000; ++i) {
    std::string candidate = "p" + std::to_string(i);
    if (cache.ShardOf(Slice(candidate)) == 0) {
      keys.push_back(candidate);
    }
  }
  ASSERT_EQ(keys.size(), 5u);
  ShardedLruCache::Handle* pinned =
      cache.Insert(Slice(keys[0]), new int(42), 1, &CountingDeleter);

  // Push several more entries through the same shard: keys[0] cannot be
  // freed while pinned, even though it is far over capacity and later
  // inserts would love its slot.
  for (int i = 1; i < 5; ++i) {
    Insert(cache, keys[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(*static_cast<int*>(cache.Value(pinned)), 42);

  // Explicit erase while pinned: still alive through the handle.
  cache.Erase(Slice(keys[0]));
  EXPECT_EQ(*static_cast<int*>(cache.Value(pinned)), 42);
  const int deleted_before_release = g_deleted;

  cache.Release(pinned);
  EXPECT_EQ(g_deleted, deleted_before_release + 1);  // freed exactly now
  EXPECT_EQ(Get(cache, keys[0]), -1);                // and unreachable
}

TEST_F(CacheTest, PinnedChargeTracked) {
  ShardedLruCache cache(1 << 20);
  ShardedLruCache::Handle* pinned =
      cache.Insert(Slice("a"), new int(1), 500, &CountingDeleter);
  EXPECT_EQ(cache.GetStats().pinned_charge, 500u);
  cache.Release(pinned);
  EXPECT_EQ(cache.GetStats().pinned_charge, 0u);
  EXPECT_EQ(cache.TotalCharge(), 500u);  // still resident, just unpinned
}

TEST_F(CacheTest, ZeroCapacityPassThrough) {
  ShardedLruCache cache(0);
  ShardedLruCache::Handle* handle =
      cache.Insert(Slice("a"), new int(7), 100, &CountingDeleter);
  // The caller's handle works...
  EXPECT_EQ(*static_cast<int*>(cache.Value(handle)), 7);
  EXPECT_EQ(cache.GetStats().pinned_charge, 100u);
  // ...but nothing is retained.
  EXPECT_EQ(cache.TotalEntries(), 0u);
  EXPECT_EQ(cache.TotalCharge(), 0u);
  EXPECT_EQ(Get(cache, "a"), -1);
  cache.Release(handle);
  EXPECT_EQ(g_deleted, 1);
  EXPECT_EQ(cache.GetStats().pinned_charge, 0u);
}

TEST_F(CacheTest, ShardDistribution) {
  ShardedLruCache cache(1 << 20);
  for (int i = 0; i < 2000; ++i) {
    Insert(cache, "key-" + std::to_string(i), i);
  }
  // Every shard should hold a meaningful slice (expected 125 each); a
  // degenerate hash would pile everything into a few shards.
  for (int shard = 0; shard < ShardedLruCache::kNumShards; ++shard) {
    EXPECT_GT(cache.ShardCharge(static_cast<size_t>(shard)), 50u) << "shard " << shard;
  }
}

TEST_F(CacheTest, HitMissStats) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "nope"), -1);
  const ShardedLruCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(CacheTest, DestructorFreesResidentEntries) {
  {
    ShardedLruCache cache(1 << 20);
    for (int i = 0; i < 100; ++i) {
      Insert(cache, "d" + std::to_string(i), i);
    }
  }
  EXPECT_EQ(g_deleted, 100);
}

// ---------------------------------------------------------------------------
// DiskComponent integration: table deletion purges cached blocks.
// ---------------------------------------------------------------------------

class DiskCachePurgeTest : public ::testing::Test {
 protected:
  DiskOptions SmallDisk() {
    DiskOptions options;
    options.env = &env_;
    options.path = "/db";
    options.sstable_target_bytes = 64 << 10;
    options.block_bytes = 1024;
    options.l0_compaction_trigger = 4;
    options.block_cache_bytes = 1 << 20;
    options.compaction_threads = 1;
    return options;
  }

  void FlushRange(uint64_t lo, uint64_t hi, uint64_t seq_base, const std::string& tag) {
    MemTable table(1 << 20);
    for (uint64_t k = lo; k < hi; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(tag + std::to_string(k)), seq_base + (k - lo),
                ValueType::kValue);
    }
    MemTableIterator iter(&table);
    ASSERT_TRUE(disk_->AddRun(&iter).ok());
  }

  MemEnv env_;
  std::unique_ptr<DiskComponent> disk_;
};

TEST_F(DiskCachePurgeTest, CompactionDeletedTablesBlocksArePurged) {
  ASSERT_TRUE(DiskComponent::Open(SmallDisk(), &disk_).ok());

  // Three overlapping L0 runs; read every key so their blocks populate
  // the cache.
  FlushRange(0, 500, 1, "a");
  FlushRange(0, 500, 1000, "b");
  FlushRange(0, 500, 2000, "c");
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "c" + std::to_string(k));
  }
  ASSERT_GT(disk_->block_cache()->TotalCharge(), 0u);

  // A fourth run trips the L0 trigger; the compaction merges all four
  // into L1 and deletes the inputs — whose blocks must leave the cache
  // with them. No reads happen after the compaction, so every surviving
  // cached block would belong to a deleted file.
  FlushRange(0, 500, 3000, "d");
  disk_->WaitForCompactions();

  EXPECT_EQ(disk_->block_cache()->TotalCharge(), 0u)
      << "blocks of compaction-deleted tables must be purged";
  EXPECT_EQ(disk_->block_cache()->TotalEntries(), 0u);

  // The data itself survived the purge, now served from the new L1 file.
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(123)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "d123");
  EXPECT_GT(disk_->block_cache()->TotalCharge(), 0u);
}

TEST_F(DiskCachePurgeTest, OpenTablesMatchCurrentVersion) {
  DiskOptions options = SmallDisk();
  options.compaction_threads = 0;  // compact only when the test says so
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());
  EXPECT_EQ(disk_->GetStats().open_tables, 0u);

  // Every installed table is open, whether or not a read touched it.
  for (uint64_t i = 0; i < 4; ++i) {
    FlushRange(i * 100, (i + 1) * 100, 1 + i * 1000, "v");
    const DiskComponent::Stats stats = disk_->GetStats();
    EXPECT_EQ(stats.open_tables, i + 1);
    EXPECT_EQ(stats.open_tables, static_cast<uint64_t>(disk_->CurrentVersion()->NumFiles()));
  }

  // The compaction's inputs close with the Version that named them; its
  // outputs open when installed.
  bool did_work = false;
  ASSERT_TRUE(disk_->CompactOnce(&did_work).ok());
  ASSERT_TRUE(did_work);
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_EQ(stats.files_per_level[0], 0);
  EXPECT_EQ(stats.open_tables, static_cast<uint64_t>(disk_->CurrentVersion()->NumFiles()));
  EXPECT_EQ(stats.table_cache_hits, 0u);
  EXPECT_EQ(stats.table_cache_misses, 0u);
  std::string value;
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "v" + std::to_string(k));
  }
}

TEST_F(DiskCachePurgeTest, BlockCacheDisabledServesReads) {
  DiskOptions options = SmallDisk();
  options.block_cache_bytes = 0;
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());
  EXPECT_EQ(disk_->block_cache(), nullptr);

  FlushRange(0, 200, 1, "x");
  std::string value;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "x" + std::to_string(k));
  }
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_EQ(stats.block_cache_hits, 0u);
  EXPECT_EQ(stats.block_cache_misses, 0u);
}

TEST_F(DiskCachePurgeTest, RepeatedReadsHitBlockCache) {
  ASSERT_TRUE(DiskComponent::Open(SmallDisk(), &disk_).ok());
  FlushRange(0, 200, 1, "y");
  std::string value;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    }
  }
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_GT(stats.block_cache_hits, stats.block_cache_misses);
  EXPECT_GT(stats.BlockCacheHitRate(), 0.5);
}

}  // namespace
}  // namespace flodb
