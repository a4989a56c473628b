// ShardedKVStore: routing at shard boundaries, cross-shard WriteBatch
// splitting, merged-scan equivalence against a single instance, per-shard
// WAL recovery, and shards=1 stat parity with plain FloDB.

#include "flodb/core/sharded_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/shard_router.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

using bench::SpreadKey;

constexpr uint64_t kKeySpace = 1 << 20;

std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, kKeySpace)); }

FloDbOptions BaseOptions(MemEnv* env, int shards) {
  FloDbOptions options;
  options.memory_budget_bytes = 4u << 20;
  options.shards = shards;
  options.disk.env = env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 64 << 10;
  return options;
}

Status OpenSharded(const FloDbOptions& options, std::unique_ptr<ShardedKVStore>* out) {
  return ShardedKVStore::Open(options, out);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, SingleShardAlwaysRoutesToZero) {
  ShardRouter router(1, 0);
  EXPECT_EQ(router.ShardOf(Slice("")), 0);
  EXPECT_EQ(router.ShardOf(Slice("anything")), 0);
  EXPECT_EQ(router.ShardOf(Slice(EncodeKey(~uint64_t{0}))), 0);
}

TEST(ShardRouterTest, BoundariesSplitTheTopBits) {
  // 4 shards: shard = top 2 bits of the first 8 key bytes.
  ShardRouter router(4, 0);
  const uint64_t quarter = uint64_t{1} << 62;
  for (int q = 0; q < 4; ++q) {
    const uint64_t lo = quarter * static_cast<uint64_t>(q);
    EXPECT_EQ(router.ShardOf(Slice(EncodeKey(lo))), q) << "first key of shard " << q;
    EXPECT_EQ(router.ShardOf(Slice(EncodeKey(lo + quarter - 1))), q) << "last key of shard " << q;
  }
  // One past each boundary belongs to the next shard.
  EXPECT_EQ(router.ShardOf(Slice(EncodeKey(quarter))), 1);
  EXPECT_EQ(router.ShardOf(Slice(EncodeKey(2 * quarter))), 2);
  EXPECT_EQ(router.ShardOf(Slice(EncodeKey(3 * quarter))), 3);
}

TEST(ShardRouterTest, ShortKeysZeroPadAndPreserveOrder) {
  ShardRouter router(4, 0);
  // A short key routes like its zero-padded extension, so byte order and
  // shard order agree ("a" < "a\0..." and both land in the same shard).
  EXPECT_EQ(router.ShardOf(Slice("a")), router.ShardOf(Slice(std::string("a\0\0\0\0\0\0\0", 8))));
  EXPECT_EQ(router.ShardOf(Slice("")), 0);
  // 0x61 top bits = 01 -> shard 1 of 4.
  EXPECT_EQ(router.ShardOf(Slice("a")), 1);
  EXPECT_EQ(router.ShardOf(Slice("\xff")), 3);
}

TEST(ShardRouterTest, PrefixSkipRoutesOnTheSuffix) {
  ShardRouter skipped(4, 8);
  // Same 8-byte prefix, different suffixes: routing must differ.
  const std::string a = std::string("session:") + EncodeKey(0);
  const std::string b = std::string("session:") + EncodeKey(~uint64_t{0});
  EXPECT_EQ(skipped.ShardOf(Slice(a)), 0);
  EXPECT_EQ(skipped.ShardOf(Slice(b)), 3);
  EXPECT_FALSE(skipped.order_preserving());
  // Without the skip everything collapses onto the prefix's shard.
  ShardRouter plain(4, 0);
  EXPECT_EQ(plain.ShardOf(Slice(a)), plain.ShardOf(Slice(b)));
}

TEST(ShardRouterTest, ScanPruningCoversTheBounds) {
  ShardRouter router(8, 0);
  int first = -1;
  int last = -1;
  router.ShardRange(Slice(EncodeKey(uint64_t{1} << 61)), Slice(EncodeKey(uint64_t{3} << 61)),
                    &first, &last);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(last, 3);
  router.ShardRange(Slice(), Slice(), &first, &last);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 7);
  // A non-order-preserving router must consult every shard.
  ShardRouter skipped(8, 4);
  skipped.ShardRange(Slice(EncodeKey(0)), Slice(EncodeKey(1)), &first, &last);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 7);
}

// ---------------------------------------------------------------------------
// Open validation and rounding
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, RejectsNonPositiveShardCounts) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  FloDbOptions options = BaseOptions(&env, 0);
  EXPECT_TRUE(OpenSharded(options, &store).IsInvalidArgument());
  options.shards = -3;
  EXPECT_TRUE(OpenSharded(options, &store).IsInvalidArgument());
}

TEST(ShardedStoreTest, PlainFloDbOpenRejectsShardCounts) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  FloDbOptions options = BaseOptions(&env, 0);
  EXPECT_TRUE(FloDB::Open(options, &db).IsInvalidArgument());
  options.shards = 4;  // a single FloDB is one shard; the facade handles >1
  EXPECT_TRUE(FloDB::Open(options, &db).IsInvalidArgument());
}

TEST(ShardedStoreTest, NonPowerOfTwoRoundsUp) {
  for (const auto& [requested, effective] : {std::pair{3, 4}, {5, 8}, {6, 8}, {9, 16}}) {
    // Fresh env per count: a directory remembers its topology (SHARDING
    // manifest), so differently-sharded stores need different homes.
    MemEnv env;
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(OpenSharded(BaseOptions(&env, requested), &store).ok()) << requested;
    EXPECT_EQ(store->NumShards(), effective) << requested;
  }
}

TEST(ShardedStoreTest, RejectsAbsurdShardCounts) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  EXPECT_TRUE(OpenSharded(BaseOptions(&env, 1000), &store).IsInvalidArgument());
  // A budget that would leave shards with zero bytes is caught up front.
  FloDbOptions options = BaseOptions(&env, 256);
  options.memory_budget_bytes = 100;
  EXPECT_TRUE(OpenSharded(options, &store).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Routing correctness through the full store
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, BoundaryKeysRouteAndReadBack) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  const uint64_t quarter = uint64_t{1} << 62;
  std::vector<uint64_t> probes;
  for (int q = 0; q < 4; ++q) {
    const uint64_t lo = quarter * static_cast<uint64_t>(q);
    probes.insert(probes.end(), {lo, lo + 1, lo + quarter - 1});
  }
  for (uint64_t p : probes) {
    ASSERT_TRUE(store->Put(Slice(EncodeKey(p)), Slice("v" + std::to_string(p))).ok());
  }
  std::string value;
  for (uint64_t p : probes) {
    ASSERT_TRUE(store->Get(Slice(EncodeKey(p)), &value).ok()) << p;
    EXPECT_EQ(value, "v" + std::to_string(p));
  }
  // Each quarter's probes landed on their own shard: all four shards saw
  // exactly 3 puts.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(store->ShardStats(s).puts, 3u) << "shard " << s;
  }
}

TEST(ShardedStoreTest, DeletesRouteToTheOwningShard) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->Put(Slice(K(i)), Slice("v")).ok());
  }
  for (uint64_t i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(store->Delete(Slice(K(i))).ok());
  }
  std::string value;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(store->Get(Slice(K(i)), &value).IsNotFound()) << i;
    } else {
      EXPECT_TRUE(store->Get(Slice(K(i)), &value).ok()) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-shard WriteBatch splitting
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, CrossShardBatchSplitsPerShard) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());

  // 64 entries round-robining the shards, plus an in-batch overwrite that
  // must stay ordered after the split (same key -> same shard).
  WriteBatch batch;
  for (uint64_t i = 0; i < 64; ++i) {
    batch.Put(Slice(K(i * (kKeySpace / 64))), Slice("first" + std::to_string(i)));
  }
  batch.Put(Slice(K(0)), Slice("second"));
  ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());

  std::string value;
  ASSERT_TRUE(store->Get(Slice(K(0)), &value).ok());
  EXPECT_EQ(value, "second") << "last-write-wins must survive the split";
  for (uint64_t i = 1; i < 64; ++i) {
    ASSERT_TRUE(store->Get(Slice(K(i * (kKeySpace / 64))), &value).ok()) << i;
    EXPECT_EQ(value, "first" + std::to_string(i));
  }

  // Every shard committed exactly one split (one group commit per touched
  // shard), and the splits partition the 65 entries.
  uint64_t entries = 0;
  for (int s = 0; s < 4; ++s) {
    const StoreStats stats = store->ShardStats(s);
    EXPECT_EQ(stats.batch_writes, 1u) << "shard " << s;
    EXPECT_GT(stats.batch_entries, 0u) << "shard " << s;
    entries += stats.batch_entries;
  }
  EXPECT_EQ(entries, 65u);
}

TEST(ShardedStoreTest, SingleShardBatchSkipsTheSplit) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  // All keys in the first quarter of the keyspace -> shard 0 only.
  WriteBatch batch;
  for (uint64_t i = 0; i < 32; ++i) {
    batch.Put(Slice(K(i)), Slice("v"));
  }
  ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(store->ShardStats(0).batch_writes, 1u);
  EXPECT_EQ(store->ShardStats(0).batch_entries, 32u);
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(store->ShardStats(s).batch_writes, 0u) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Merged scans
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, MergedScanEquivalentToSingleShard) {
  MemEnv env_sharded;
  MemEnv env_single;
  std::unique_ptr<ShardedKVStore> sharded;
  std::unique_ptr<ShardedKVStore> single;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env_sharded, 4), &sharded).ok());
  ASSERT_TRUE(OpenSharded(BaseOptions(&env_single, 1), &single).ok());

  // Same writes to both stores: interleaved puts, overwrites, deletes.
  for (uint64_t i = 0; i < 5000; ++i) {
    const std::string v = "v" + std::to_string(i % 97);
    ASSERT_TRUE(sharded->Put(Slice(K(i * 7919 % kKeySpace)), Slice(v)).ok());
    ASSERT_TRUE(single->Put(Slice(K(i * 7919 % kKeySpace)), Slice(v)).ok());
  }
  for (uint64_t i = 0; i < 5000; i += 5) {
    ASSERT_TRUE(sharded->Delete(Slice(K(i * 7919 % kKeySpace))).ok());
    ASSERT_TRUE(single->Delete(Slice(K(i * 7919 % kKeySpace))).ok());
  }

  // Full-range materializing scan.
  std::vector<std::pair<std::string, std::string>> got;
  std::vector<std::pair<std::string, std::string>> want;
  ASSERT_TRUE(sharded->Scan(Slice(), Slice(), 0, &got).ok());
  ASSERT_TRUE(single->Scan(Slice(), Slice(), 0, &want).ok());
  EXPECT_EQ(got, want);
  ASSERT_GT(want.size(), 100u) << "the dataset must be non-trivial";

  // Bounded sub-range through the streaming iterator, small chunks so the
  // merge crosses many chunk fetches.
  ReadOptions read_options;
  read_options.scan_chunk_size = 64;
  const std::string low = K(kKeySpace / 5);
  const std::string high = K(4 * kKeySpace / 5);
  auto it_sharded = sharded->NewScanIterator(read_options, Slice(low), Slice(high));
  auto it_single = single->NewScanIterator(read_options, Slice(low), Slice(high));
  size_t count = 0;
  std::string prev;
  while (it_sharded->Valid() && it_single->Valid()) {
    EXPECT_EQ(it_sharded->key().ToString(), it_single->key().ToString()) << count;
    EXPECT_EQ(it_sharded->value().ToString(), it_single->value().ToString()) << count;
    // Global order across shard boundaries must be strictly ascending.
    EXPECT_LT(prev, it_sharded->key().ToString());
    prev = it_sharded->key().ToString();
    it_sharded->Next();
    it_single->Next();
    ++count;
  }
  EXPECT_FALSE(it_sharded->Valid());
  EXPECT_FALSE(it_single->Valid());
  EXPECT_TRUE(it_sharded->status().ok());
  ASSERT_GT(count, 100u);
  // The merged cursor's buffering stays bounded by shards x chunk size.
  EXPECT_LE(it_sharded->MaxBufferedEntries(), 4 * read_options.scan_chunk_size);
}

TEST(ShardedStoreTest, InvertedScanBoundsYieldEmptyNotCrash) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  ASSERT_TRUE(store->Put(Slice(K(kKeySpace / 2)), Slice("v")).ok());
  // low > high routes first > last through the pruner — must behave like
  // plain FloDB's immediately-exhausted scan, not blow up.
  std::vector<std::pair<std::string, std::string>> out = {{"stale", "stale"}};
  ASSERT_TRUE(store->Scan(Slice(K(kKeySpace - 1)), Slice(K(1)), 0, &out).ok());
  EXPECT_TRUE(out.empty());
  auto it = store->NewScanIterator(ReadOptions(), Slice(K(kKeySpace - 1)), Slice(K(1)));
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST(ShardedStoreTest, ScanLimitStopsAcrossShardBoundaries) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Put(Slice(K(i * (kKeySpace / 2000))), Slice("v")).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store->Scan(Slice(), Slice(), 700, &out).ok());
  EXPECT_EQ(out.size(), 700u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

// ---------------------------------------------------------------------------
// Per-shard recovery
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, PerShardWalRecoveryAfterTornTail) {
  MemEnv env;
  FloDbOptions options = BaseOptions(&env, 4);
  options.enable_wal = true;
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(OpenSharded(options, &store).ok());
    for (uint64_t i = 0; i < 800; ++i) {
      ASSERT_TRUE(store->Put(Slice(K(i * (kKeySpace / 800))), Slice("durable")).ok());
    }
    // "Crash": no FlushAll; each shard's WAL survives in its subdirectory.
  }

  // Tear the tail of ONE shard's WAL (shard 2). The other shards' logs
  // stay intact, so their recovery must be unaffected.
  const std::string torn_dir = ShardedKVStore::ShardPath("/db", 2);
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren(torn_dir, &children).ok());
  bool tore = false;
  for (const std::string& name : children) {
    if (name.rfind("wal-", 0) == 0) {
      std::string data;
      ASSERT_TRUE(ReadFileToString(&env, torn_dir + "/" + name, &data).ok());
      ASSERT_GT(data.size(), 5u);
      data.resize(data.size() - 5);
      ASSERT_TRUE(WriteStringToFile(&env, Slice(data), torn_dir + "/" + name, false).ok());
      tore = true;
    }
  }
  ASSERT_TRUE(tore) << "shard 2 must have written a WAL";

  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(options, &store).ok());
  std::string value;
  uint64_t missing = 0;
  for (uint64_t i = 0; i < 800; ++i) {
    const std::string key = K(i * (kKeySpace / 800));
    const Status s = store->Get(Slice(key), &value);
    if (s.IsNotFound()) {
      ++missing;
      // A torn tail may only lose writes from the shard whose log was cut.
      EXPECT_EQ(store->ShardOf(Slice(key)), 2) << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(value, "durable");
    }
  }
  // At most the one torn record is gone; everything else recovered.
  EXPECT_LE(missing, 1u);
}

TEST(ShardedStoreTest, CleanReopenRecoversEveryShard) {
  MemEnv env;
  FloDbOptions options = BaseOptions(&env, 4);
  options.enable_wal = true;
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(OpenSharded(options, &store).ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(store->Put(Slice(K(i * 449 % kKeySpace)), Slice("v" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(store->FlushAll().ok());
  }
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(options, &store).ok());
  // 449 is coprime with the keyspace, so every i wrote a distinct key.
  std::string value;
  for (uint64_t i = 0; i < 2000; i += 97) {
    ASSERT_TRUE(store->Get(Slice(K(i * 449 % kKeySpace)), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(ShardedStoreTest, ReopenWithDifferentTopologyRefused) {
  MemEnv env;
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(OpenSharded(BaseOptions(&env, 2), &store).ok());
    ASSERT_TRUE(store->Put(Slice(K(kKeySpace - 1)), Slice("stranded?")).ok());
    ASSERT_TRUE(store->FlushAll().ok());
  }
  // A different shard count would re-route existing keys into shards that
  // never held them — refuse instead of silently hiding durable data.
  std::unique_ptr<ShardedKVStore> store;
  EXPECT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).IsInvalidArgument());
  // Same count but different routing (prefix skip) is just as wrong.
  FloDbOptions skipped = BaseOptions(&env, 2);
  skipped.shard_key_prefix_skip = 4;
  EXPECT_TRUE(OpenSharded(skipped, &store).IsInvalidArgument());
  // The matching topology reopens and still sees the data.
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 2), &store).ok());
  std::string value;
  ASSERT_TRUE(store->Get(Slice(K(kKeySpace - 1)), &value).ok());
  EXPECT_EQ(value, "stranded?");
}

TEST(ShardedStoreTest, TopologyManifestRecordsTheRoundedCount) {
  MemEnv env;
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(OpenSharded(BaseOptions(&env, 3), &store).ok());  // rounds to 4
  }
  // Reopening with any request that rounds to the same effective count
  // matches the manifest.
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  EXPECT_EQ(store->NumShards(), 4);
}

TEST(ShardedStoreTest, CrossShardWriteCounterTracksStraddlingBatches) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  ASSERT_TRUE(store->Put(Slice(K(0)), Slice("v")).ok());  // single shard: no split
  EXPECT_EQ(store->CrossShardWrites(), 0u);
  WriteBatch straddling;
  straddling.Put(Slice(K(0)), Slice("v"));
  straddling.Put(Slice(K(kKeySpace - 1)), Slice("v"));
  ASSERT_TRUE(store->Write(WriteOptions(), &straddling).ok());
  EXPECT_EQ(store->CrossShardWrites(), 1u);
}

// ---------------------------------------------------------------------------
// shards=1 parity
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, SingleShardStatParityWithPlainFloDB) {
  MemEnv env_plain;
  MemEnv env_sharded;
  FloDbOptions plain_options = BaseOptions(&env_plain, 1);
  std::unique_ptr<FloDB> plain;
  ASSERT_TRUE(FloDB::Open(plain_options, &plain).ok());
  std::unique_ptr<ShardedKVStore> sharded;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env_sharded, 1), &sharded).ok());
  EXPECT_EQ(sharded->Name(), plain->Name()) << "shards=1 is a pass-through";

  const auto drive = [](KVStore* store) {
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_TRUE(store->Put(Slice(K(i)), Slice("value-" + std::to_string(i))).ok());
    }
    WriteBatch batch;
    for (uint64_t i = 0; i < 100; ++i) {
      batch.Put(Slice(K(10'000 + i)), Slice("batched"));
    }
    ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());
    std::string value;
    for (uint64_t i = 0; i < 3000; i += 7) {
      store->Get(Slice(K(i)), &value);
    }
    for (uint64_t i = 0; i < 200; i += 2) {
      ASSERT_TRUE(store->Delete(Slice(K(i))).ok());
    }
    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(store->Scan(Slice(K(0)), Slice(K(500)), 0, &out).ok());
    auto it = store->NewScanIterator(ReadOptions(), Slice(K(0)), Slice(K(500)));
    while (it->Valid()) {
      it->Next();
    }
    ASSERT_TRUE(store->FlushAll().ok());
  };
  drive(plain.get());
  drive(sharded.get());

  const StoreStats a = plain->GetStats();
  const StoreStats b = sharded->GetStats();
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.batch_writes, b.batch_writes);
  EXPECT_EQ(a.batch_entries, b.batch_entries);
  EXPECT_EQ(a.wal_batch_records, b.wal_batch_records);
  EXPECT_EQ(a.master_scans, b.master_scans);
  // Data-movement counters (drains, spills, rotations) depend on thread
  // timing, so parity there is not byte-for-byte deterministic; the
  // op-count surface above is.
  EXPECT_EQ(a.membuffer_adds + a.memtable_direct_adds,
            b.membuffer_adds + b.memtable_direct_adds);
  // The disk shape after FlushAll is the same too, level by level. Byte
  // counts differ by the shadowed versions that drain timing leaves in the
  // flushed table, so only which levels hold bytes must match.
  EXPECT_EQ(a.disk.files_per_level, b.disk.files_per_level);
  ASSERT_EQ(a.disk.bytes_per_level.size(), b.disk.bytes_per_level.size());
  for (size_t l = 0; l < a.disk.bytes_per_level.size(); ++l) {
    EXPECT_EQ(a.disk.bytes_per_level[l] > 0, b.disk.bytes_per_level[l] > 0) << "level " << l;
  }
}

// The router's per-level rollup is the sum over its shards, so space-amp
// computed from a sharded store sees every shard's bytes.
TEST(ShardedStoreTest, PerLevelStatsSumOverShards) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  for (uint64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(store->Put(Slice(K(i * (kKeySpace / 4096))), Slice("v")).ok());
  }
  ASSERT_TRUE(store->FlushAll().ok());

  std::vector<int> files;
  std::vector<uint64_t> bytes;
  for (int s = 0; s < store->NumShards(); ++s) {
    const StoreStats shard = store->ShardStats(s);
    files.resize(std::max(files.size(), shard.disk.files_per_level.size()), 0);
    bytes.resize(std::max(bytes.size(), shard.disk.bytes_per_level.size()), 0);
    for (size_t l = 0; l < shard.disk.files_per_level.size(); ++l) {
      files[l] += shard.disk.files_per_level[l];
    }
    for (size_t l = 0; l < shard.disk.bytes_per_level.size(); ++l) {
      bytes[l] += shard.disk.bytes_per_level[l];
    }
  }
  const StoreStats total = store->GetStats();
  EXPECT_EQ(total.disk.files_per_level, files);
  EXPECT_EQ(total.disk.bytes_per_level, bytes);
  uint64_t on_disk = 0;
  for (const uint64_t b : total.disk.bytes_per_level) {
    on_disk += b;
  }
  EXPECT_GT(on_disk, 0u);
}

// KVStore::CompactRange on the router fans out to every shard.
TEST(CompactRangeApiTest, ShardedFanOutCompactsEveryShard) {
  MemEnv env;
  FloDbOptions options = BaseOptions(&env, 4);
  options.memory_budget_bytes = 512 << 10;
  options.disk.sstable_target_bytes = 32 << 10;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(options, &store).ok());
  auto value_of = [](uint64_t i) { return "k" + std::to_string(i) + "-" + std::string(400, 'v'); };
  for (uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(store->Put(Slice(EncodeKey(i * 1315423911u)), Slice(value_of(i))).ok());
  }
  ASSERT_TRUE(store->CompactRange(Slice(), Slice()).ok());
  for (int shard = 0; shard < store->NumShards(); ++shard) {
    // Post-compaction every shard's L0 is empty (its data sits deeper).
    EXPECT_EQ(store->ShardStats(shard).disk.files_per_level[0], 0) << "shard " << shard;
  }
  for (uint64_t i = 0; i < 256; ++i) {
    std::string value;
    ASSERT_TRUE(store->Get(Slice(EncodeKey(i * 1315423911u)), &value).ok());
    EXPECT_EQ(value, value_of(i));
  }
}

// ---------------------------------------------------------------------------
// Cross-shard atomicity and snapshot consistency (DESIGN.md §8)
// ---------------------------------------------------------------------------

// Quarter q of the keyspace is exactly shard q of 4.
std::string QK(int shard, uint64_t i) {
  return EncodeKey(static_cast<uint64_t>(shard) * (uint64_t{1} << 62) + i);
}

// The merged iterator must expose each entry's REAL sequence number
// (regression: the shard adapter used to hardcode seq()=0, which made
// every merged entry look like it predated the beginning of time).
TEST(ShardedStoreTest, MergedIteratorThreadsRealSequenceNumbers) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(store->Put(Slice(QK(q, 1)), Slice("first")).ok());
  }
  std::vector<uint64_t> first_seqs;
  {
    auto it = store->NewScanIterator(ReadOptions(), Slice(), Slice());
    for (; it->Valid(); it->Next()) {
      EXPECT_GE(it->seq(), 1u) << "hardcoded seq resurfaced";
      first_seqs.push_back(it->seq());
    }
    ASSERT_EQ(first_seqs.size(), 4u);
  }
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(store->Put(Slice(QK(q, 1)), Slice("second")).ok());
  }
  auto it = store->NewScanIterator(ReadOptions(), Slice(), Slice());
  size_t i = 0;
  for (; it->Valid(); it->Next(), ++i) {
    EXPECT_EQ(it->value().ToString(), "second");
    EXPECT_GT(it->seq(), first_seqs[i]) << "the overwrite must carry a newer seq";
  }
  EXPECT_EQ(i, 4u);
}

// Merged scans vs racing cross-shard writers: each transaction writes
// the SAME round value to one key per shard, so any snapshot that mixes
// rounds is a torn read. The write fence must make every scan see one
// round across all four shards. (Each shard stream's first chunk holds
// the shard's single key, so the whole snapshot materializes under the
// fence — the documented single-chunk consistency case.)
TEST(ShardedStoreTest, MergedScanNeverObservesHalfACrossShardBatch) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  constexpr uint64_t kScans = 300;
  {
    WriteBatch seed;
    for (int q = 0; q < 4; ++q) {
      seed.Put(Slice(QK(q, 0)), Slice("0"));
    }
    ASSERT_TRUE(store->Write(WriteOptions(), &seed).ok());
  }
  // The scanner paces the test: the writer keeps committing rounds until
  // every scan has run, so each scan genuinely races a write.
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<uint64_t> rounds{0};
  std::thread writer([&] {
    for (uint64_t r = 1; !stop.load(); ++r) {
      WriteBatch batch;
      const std::string v = std::to_string(r);
      for (int q = 0; q < 4; ++q) {
        batch.Put(Slice(QK(q, 0)), Slice(v));
      }
      if (!store->Write(WriteOptions(), &batch).ok()) {
        writer_failed.store(true);
        break;
      }
      rounds.store(r);
    }
  });
  // The first scan waits for round 1, so no scan can finish before the
  // writer has committed anything.
  while (rounds.load() == 0 && !writer_failed.load()) {
    std::this_thread::yield();
  }
  for (uint64_t scan = 0; scan < kScans; ++scan) {
    auto it = store->NewScanIterator(ReadOptions(), Slice(), Slice());
    std::vector<std::string> values;
    for (; it->Valid(); it->Next()) {
      values.push_back(it->value().ToString());
    }
    ASSERT_EQ(values.size(), 4u);
    for (size_t i = 1; i < values.size(); ++i) {
      ASSERT_EQ(values[i], values[0])
          << "torn snapshot: shard 0 at round " << values[0] << ", shard " << i << " at round "
          << values[i];
    }
  }
  stop.store(true);
  writer.join();
  ASSERT_FALSE(writer_failed.load());
  EXPECT_GT(rounds.load(), 0u);
  EXPECT_EQ(store->GetStats().txn_commits, rounds.load() + 1);
}

// An explicit piggyback snapshot opts out of the fence: it must still
// work (weaker per-shard consistency), just without the cross-shard
// guarantee.
TEST(ShardedStoreTest, PiggybackSnapshotOptsOutOfTheFence) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 4), &store).ok());
  WriteBatch batch;
  for (int q = 0; q < 4; ++q) {
    batch.Put(Slice(QK(q, 0)), Slice("v"));
  }
  ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());
  ReadOptions piggyback;
  piggyback.snapshot_mode = SnapshotMode::kPiggyback;
  auto it = store->NewScanIterator(piggyback, Slice(), Slice());
  size_t count = 0;
  for (; it->Valid(); it->Next()) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
  EXPECT_TRUE(it->status().ok());
}

// Balance sanity: a uniform keyspace spreads across every shard.
TEST(ShardedStoreTest, UniformLoadTouchesEveryShard) {
  MemEnv env;
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(OpenSharded(BaseOptions(&env, 8), &store).ok());
  for (uint64_t i = 0; i < 4096; ++i) {
    ASSERT_TRUE(store->Put(Slice(K(i * (kKeySpace / 4096))), Slice("v")).ok());
  }
  for (int s = 0; s < store->NumShards(); ++s) {
    EXPECT_GT(store->ShardStats(s).puts, 4096u / 16) << "shard " << s << " underloaded";
  }
}

}  // namespace
}  // namespace flodb
