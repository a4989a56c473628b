// ShardedLruCache under contention: readers racing insertions,
// capacity-pressure evictions and explicit erases. The invariants under
// test: a pinned value is never freed or corrupted while its handle is
// held; every value is freed exactly once; charge accounting converges
// to zero once the cache drains. Then the disk component's read path
// over the block cache while compactions delete the tables under it.
// Run under TSan in CI (concurrent label) and looped by the
// stress-concurrent job.

#include "flodb/common/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/disk_component.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/memtable.h"

namespace flodb {
namespace {

std::atomic<int> g_live{0};

// Values encode their key index so readers can detect cross-key mixups.
void CountingDeleter(const Slice& /*key*/, void* value) {
  delete static_cast<uint64_t*>(value);
  g_live.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t* NewValue(uint64_t i) {
  g_live.fetch_add(1, std::memory_order_relaxed);
  return new uint64_t(i * 31 + 7);
}

std::string KeyOf(uint64_t i) { return "key-" + std::to_string(i); }

TEST(CacheConcurrentTest, ReadersInsertionsEvictions) {
  g_live.store(0);
  // Capacity far below the key range so evictions run constantly.
  ShardedLruCache cache(64);
  constexpr uint64_t kKeys = 512;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 977 + 13);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t i = rng.Uniform(kKeys);
        const std::string key = KeyOf(i);
        ShardedLruCache::Handle* handle = cache.Lookup(Slice(key));
        if (handle == nullptr) {
          handle = cache.Insert(Slice(key), NewValue(i), 1, &CountingDeleter);
        }
        // The pinned value must match its key even while eviction and
        // replacement churn around us.
        EXPECT_EQ(*static_cast<uint64_t*>(cache.Value(handle)), i * 31 + 7);
        cache.Release(handle);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  const ShardedLruCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.pinned_charge, 0u);
  // Everything freed except what is still resident.
  EXPECT_EQ(static_cast<size_t>(g_live.load()), stats.entries);
  EXPECT_LE(stats.charge, 64u + ShardedLruCache::kNumShards);
}

TEST(CacheConcurrentTest, EraseRacesLookups) {
  g_live.store(0);
  ShardedLruCache cache(1 << 16);
  constexpr uint64_t kKeys = 256;
  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> stop{false};

  // Writers insert, erasers tear down, readers verify pinned stability.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 61 + 5);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t i = rng.Uniform(kKeys);
        cache.Release(cache.Insert(Slice(KeyOf(i)), NewValue(i), 1, &CountingDeleter));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 127 + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        cache.Erase(Slice(KeyOf(rng.Uniform(kKeys))));
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 193 + 11);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t i = rng.Uniform(kKeys);
        if (ShardedLruCache::Handle* handle = cache.Lookup(Slice(KeyOf(i)))) {
          // An Erase may race us right here; the handle must keep the
          // value alive and intact regardless.
          EXPECT_EQ(*static_cast<uint64_t*>(cache.Value(handle)), i * 31 + 7);
          cache.Release(handle);
        }
      }
    });
  }
  // Join the bounded threads first, then stop the erasers.
  for (size_t t = 0; t < threads.size(); ++t) {
    if (t == 3 || t == 4) {
      continue;
    }
    threads[t].join();
  }
  stop.store(true, std::memory_order_relaxed);
  threads[3].join();
  threads[4].join();

  const ShardedLruCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.pinned_charge, 0u);
  EXPECT_EQ(static_cast<size_t>(g_live.load()), stats.entries);
}

TEST(CacheConcurrentTest, PinnedEntriesSurviveEvictionStorm) {
  g_live.store(0);
  ShardedLruCache cache(32);
  constexpr uint64_t kPinned = 64;  // far over capacity

  // Pin a population of entries, then storm the cache with inserts that
  // would evict them if refcounts were broken.
  std::vector<ShardedLruCache::Handle*> pinned;
  for (uint64_t i = 0; i < kPinned; ++i) {
    pinned.push_back(cache.Insert(Slice("pin-" + std::to_string(i)), NewValue(i), 1,
                                  &CountingDeleter));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 1);
      for (int op = 0; op < 10000; ++op) {
        const uint64_t i = rng.Uniform(4096);
        cache.Release(
            cache.Insert(Slice("storm-" + std::to_string(i)), NewValue(i), 1, &CountingDeleter));
      }
    });
  }
  std::thread checker([&] {
    for (int round = 0; round < 200; ++round) {
      for (uint64_t i = 0; i < kPinned; ++i) {
        EXPECT_EQ(*static_cast<uint64_t*>(cache.Value(pinned[i])), i * 31 + 7);
      }
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  checker.join();

  for (ShardedLruCache::Handle* handle : pinned) {
    cache.Release(handle);
  }
  const ShardedLruCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.pinned_charge, 0u);
  EXPECT_EQ(static_cast<size_t>(g_live.load()), stats.entries);
}

TEST(CacheConcurrentTest, AllFreedOnDestruction) {
  g_live.store(0);
  {
    ShardedLruCache cache(128);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Random64 rng(static_cast<uint64_t>(t) * 7 + 1);
        for (int op = 0; op < 5000; ++op) {
          const uint64_t i = rng.Uniform(1024);
          cache.Release(cache.Insert(Slice(KeyOf(i)), NewValue(i), 1, &CountingDeleter));
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  EXPECT_EQ(g_live.load(), 0);
}

// Readers race compactions that delete the tables they read. Each round
// rewrites every key with its round number, so a read that starts after
// round r committed must see round r or later. Tables close on whichever
// thread frees the last Version naming them; once everything settles,
// no block of a deleted table may stay in the block cache.
TEST(DiskReadersVsCompactionTest, ReadsSeeLatestWhileTablesAreDeleted) {
  MemEnv env;
  DiskOptions options;
  options.env = &env;
  options.path = "/db";
  options.sstable_target_bytes = 8 << 10;
  options.block_bytes = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 2;
  options.l1_max_bytes = 32 << 10;
  options.level_size_multiplier = 4;
  options.compaction_threads = 1;
  std::unique_ptr<DiskComponent> disk;
  ASSERT_TRUE(DiskComponent::Open(options, &disk).ok());

  constexpr uint64_t kKeys = 400;
  auto value_of = [](uint64_t round, uint64_t k) {
    return std::to_string(round) + "-" + std::to_string(k);
  };
  auto round_of = [](const Slice& value) {
    return std::stoull(value.ToString().substr(0, value.ToString().find('-')));
  };
  std::atomic<uint64_t> committed{0};
  std::atomic<bool> stop{false};
  auto write_round = [&](uint64_t round) {
    MemTable table(1 << 20);
    for (uint64_t k = 0; k < kKeys; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(value_of(round, k)), round * kKeys + k + 1,
                ValueType::kValue);
    }
    MemTableIterator iter(&table);
    ASSERT_TRUE(disk->AddRun(&iter).ok());
    committed.store(round, std::memory_order_release);
  };
  write_round(1);

  std::vector<std::thread> threads;
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> scans{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 1);
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.Uniform(kKeys);
        const uint64_t floor = committed.load(std::memory_order_acquire);
        const Status s = disk->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr);
        ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
        ASSERT_GE(round_of(Slice(value)), floor) << k;
        ASSERT_EQ(value.substr(value.find('-') + 1), std::to_string(k));
        gets.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t floor = committed.load(std::memory_order_acquire);
      std::unique_ptr<Iterator> iter = disk->NewIterator();
      uint64_t next_key = 0;
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        const uint64_t k = DecodeKey(iter->key());
        if (k + 1 == next_key) {
          continue;  // an older version of the key just checked
        }
        ASSERT_EQ(k, next_key);
        ASSERT_GE(round_of(iter->value()), floor) << k;
        next_key = k + 1;
      }
      ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
      ASSERT_EQ(next_key, kKeys);
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  uint64_t round = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    write_round(++round);
  }
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  disk->WaitForCompactions();
  EXPECT_GT(disk->GetStats().compactions, 0u);
  EXPECT_GT(gets.load(), 0u);
  EXPECT_GT(scans.load(), 0u);

  // Quiescent: only the current Version names tables, so every cached
  // block belongs to one of its files. The newest file ever installed is
  // still live (nothing compacted it away), so it bounds the numbers used.
  std::set<uint64_t> live;
  std::shared_ptr<const Version> v = disk->CurrentVersion();
  for (int level = 0; level < v->NumLevels(); ++level) {
    for (const FileMetaData& f : v->LevelFiles(level)) {
      live.insert(f.number);
    }
  }
  ASSERT_FALSE(live.empty());
  ShardedLruCache* cache = disk->block_cache();
  EXPECT_EQ(cache->GetStats().pinned_charge, 0u);
  char buf[TableReader::kBlockCacheKeySize];
  for (uint64_t number = 1; number <= *live.rbegin(); ++number) {
    if (live.count(number) != 0) {
      continue;
    }
    // An 8 KiB table of 1 KiB blocks has well under 64 blocks.
    for (uint64_t block = 0; block < 64; ++block) {
      ShardedLruCache::Handle* handle =
          cache->Lookup(TableReader::BlockCacheKey(number, block, buf));
      EXPECT_EQ(handle, nullptr) << "block " << block << " of deleted table " << number;
      if (handle != nullptr) {
        cache->Release(handle);
      }
    }
  }
}

}  // namespace
}  // namespace flodb
