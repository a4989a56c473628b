// FloDbOptions validation edge cases: FloDB::Open must reject nonsense
// configurations with InvalidArgument instead of crashing or silently
// misbehaving later.

#include "flodb/core/options.h"

#include <gtest/gtest.h>

#include <memory>

#include "flodb/core/flodb.h"
#include "flodb/core/sharded_store.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  FloDbOptions ValidOptions() {
    FloDbOptions options;
    options.memory_budget_bytes = 1 << 20;
    options.membuffer_fraction = 0.25;
    options.disk.env = &env_;
    options.disk.path = "/db";
    return options;
  }

  Status Open(const FloDbOptions& options) {
    std::unique_ptr<FloDB> db;
    return FloDB::Open(options, &db);
  }

  MemEnv env_;
};

TEST_F(OptionsTest, ValidOptionsOpen) { EXPECT_TRUE(Open(ValidOptions()).ok()); }

TEST_F(OptionsTest, ZeroMemoryBudgetRejected) {
  FloDbOptions options = ValidOptions();
  options.memory_budget_bytes = 0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionZeroRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 0.0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionNegativeRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = -0.5;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionOneRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 1.0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionAboveOneRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 1.5;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionJustInsideRangeAccepted) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 0.01;
  EXPECT_TRUE(Open(options).ok());
  options.membuffer_fraction = 0.99;
  EXPECT_TRUE(Open(options).ok());
}

TEST_F(OptionsTest, PersistenceWithoutEnvRejected) {
  FloDbOptions options = ValidOptions();
  options.disk.env = nullptr;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, PersistenceWithoutPathRejected) {
  FloDbOptions options = ValidOptions();
  options.disk.path.clear();
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, WalRequiresPersistence) {
  FloDbOptions options = ValidOptions();
  options.enable_persistence = false;
  options.enable_wal = true;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, NoPersistenceNeedsNoDiskConfig) {
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.enable_persistence = false;
  EXPECT_TRUE(Open(options).ok());
}

TEST_F(OptionsTest, ShardCountBelowOneRejected) {
  FloDbOptions options = ValidOptions();
  options.shards = 0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
  options.shards = -4;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
  std::unique_ptr<ShardedKVStore> sharded;
  options.shards = 0;
  EXPECT_TRUE(ShardedKVStore::Open(options, &sharded).IsInvalidArgument());
}

TEST_F(OptionsTest, PlainOpenRejectsMultiShardConfigs) {
  // One FloDB is one shard; asking it for more must fail loudly instead of
  // silently serving a single instance (ShardedKVStore::Open is the facade).
  FloDbOptions options = ValidOptions();
  options.shards = 4;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, NonPowerOfTwoShardsRoundUp) {
  // The documented rounding rule: requested parallelism is a floor —
  // non-power-of-two counts round UP to the next power of two.
  FloDbOptions options = ValidOptions();
  options.shards = 6;
  std::unique_ptr<ShardedKVStore> sharded;
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  EXPECT_EQ(sharded->NumShards(), 8);
  options.shards = 8;
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  EXPECT_EQ(sharded->NumShards(), 8);
}

TEST_F(OptionsTest, ShardCountAboveCapRejected) {
  FloDbOptions options = ValidOptions();
  options.shards = ShardedKVStore::kMaxShards + 1;
  std::unique_ptr<ShardedKVStore> sharded;
  EXPECT_TRUE(ShardedKVStore::Open(options, &sharded).IsInvalidArgument());
}

TEST_F(OptionsTest, ZeroTableCacheEntriesRejected) {
  // Without open-table reuse every Get would reopen its file; the
  // degenerate config is a misconfiguration, not a mode.
  FloDbOptions options = ValidOptions();
  options.disk.table_cache_entries = 0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
  std::unique_ptr<ShardedKVStore> sharded;
  options.shards = 2;
  EXPECT_TRUE(ShardedKVStore::Open(options, &sharded).IsInvalidArgument());
}

TEST_F(OptionsTest, ShardedOpenInstallsSharedCompactionLimiter) {
  FloDbOptions options = ValidOptions();
  options.memory_budget_bytes = 8u << 20;
  options.shards = 4;
  options.disk.compaction_threads = 2;
  std::unique_ptr<ShardedKVStore> sharded;
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  const std::shared_ptr<CompactionThreadLimiter> limiter =
      sharded->shard(0)->options().disk.compaction_limiter;
  ASSERT_NE(limiter, nullptr);
  EXPECT_EQ(limiter->max_concurrent(), 2);
  for (int i = 1; i < sharded->NumShards(); ++i) {
    // One limiter shared by every shard — not one per shard.
    EXPECT_EQ(sharded->shard(i)->options().disk.compaction_limiter, limiter) << i;
  }
}

TEST_F(OptionsTest, ZeroBlockCacheBytesDisablesCaching) {
  // 0 is a valid mode (block caching off), not an error.
  FloDbOptions options = ValidOptions();
  options.disk.block_cache_bytes = 0;
  EXPECT_TRUE(Open(options).ok());
}

TEST_F(OptionsTest, ShardedOpenSplitsCacheBudgets) {
  FloDbOptions options = ValidOptions();
  options.memory_budget_bytes = 8u << 20;
  options.shards = 4;
  options.disk.block_cache_bytes = 4u << 20;
  options.disk.table_cache_entries = 32;
  std::unique_ptr<ShardedKVStore> sharded;
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  for (int i = 0; i < sharded->NumShards(); ++i) {
    const DiskOptions& disk = sharded->shard(i)->options().disk;
    EXPECT_EQ(disk.block_cache_bytes, (4u << 20) / 4);
    EXPECT_EQ(disk.table_cache_entries, 8u);
  }
}

TEST_F(OptionsTest, ShardedCacheSplitRespectsFloors) {
  // A high shard count must not flip caching off (64KB floor) or strand
  // a shard without table handles (1-entry floor); an explicit 0 keeps
  // meaning "disabled" on every shard.
  FloDbOptions options = ValidOptions();
  options.memory_budget_bytes = 32u << 20;
  options.shards = 16;
  options.disk.block_cache_bytes = 256u << 10;  // 16KB per shard pre-floor
  options.disk.table_cache_entries = 4;         // 0 per shard pre-floor
  std::unique_ptr<ShardedKVStore> sharded;
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  for (int i = 0; i < sharded->NumShards(); ++i) {
    const DiskOptions& disk = sharded->shard(i)->options().disk;
    EXPECT_EQ(disk.block_cache_bytes, 64u << 10);
    EXPECT_EQ(disk.table_cache_entries, 1u);
  }

  options.disk.block_cache_bytes = 0;
  options.disk.path = "/db-nocache";  // fresh dir: topology manifest differs per config
  ASSERT_TRUE(ShardedKVStore::Open(options, &sharded).ok());
  for (int i = 0; i < sharded->NumShards(); ++i) {
    EXPECT_EQ(sharded->shard(i)->options().disk.block_cache_bytes, 0u);
  }
}

}  // namespace
}  // namespace flodb
