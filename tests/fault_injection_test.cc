// Durability under injected storage faults (FaultInjectionEnv): the
// crash-recovery matrix of DESIGN.md §10. The invariant every test
// enforces: an acknowledged sync=true write is NEVER lost — across
// dropped unsynced data, torn WAL tails, failed WAL rotations, failed
// fsyncs and failed Memtable persists. sync=false writes may lose their
// unsynced tail (and one test shows they do).
//
// The second half is the CROSS-SHARD crash matrix: two-phase commit over
// ShardedKVStore must make every acknowledged straddling batch
// all-or-nothing across every kill point — between prepares and the
// commit marker, after the marker before the apply, and mid-prepare with
// a torn tail.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/core/sharded_store.h"
#include "flodb/disk/fault_env.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

using bench::SpreadKey;

std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, 1 << 20)); }

FloDbOptions FaultOptions(Env* env) {
  FloDbOptions options;
  options.memory_budget_bytes = 512 << 10;
  options.enable_wal = true;
  options.disk.env = env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 32 << 10;
  return options;
}

int CountWalFiles(Env* env) {
  std::vector<std::string> children;
  env->GetChildren("/db", &children);
  int count = 0;
  for (const std::string& name : children) {
    if (name.rfind("wal-", 0) == 0) {
      ++count;
    }
  }
  return count;
}

// Simulates power loss: the destructor's courtesy fsync must not rescue
// unsynced data, so syncs are failed before teardown, then everything
// past the last REAL sync is dropped. Works for a plain FloDB and for a
// ShardedKVStore (whose teardown also tries to fsync the txn log).
template <typename Store>
void CrashAndDrop(std::unique_ptr<Store>* db, FaultInjectionEnv* fault) {
  fault->FailSyncs(true);
  db->reset();
  fault->FailSyncs(false);
  ASSERT_TRUE(fault->DropUnsyncedFileData().ok());
}

TEST(FaultInjectionTest, SyncedWriteSurvivesCrashUnsyncedTailMayNot) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    WriteOptions synced;
    synced.sync = true;
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice("durable")).ok());
    }
    // Unsynced tail: acknowledged, but sync=false promises nothing.
    for (uint64_t i = 100; i < 150; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice("volatile")).ok());
    }
    CrashAndDrop(&db, &fault);
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << "lost acknowledged sync write " << i;
    EXPECT_EQ(value, "durable");
  }
  // The unsynced tail was written after the last fsync, so the power cut
  // took it — exactly what sync=false allows.
  for (uint64_t i = 100; i < 150; ++i) {
    EXPECT_TRUE(db->Get(Slice(K(i)), &value).IsNotFound()) << i;
  }
}

TEST(FaultInjectionTest, TornBatchTailRecoversWholeEarlierPrefix) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    WriteOptions synced;
    synced.sync = true;
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice("pre")).ok());
    }
    // The next WAL append dies mid-record — half the batch record lands.
    fault.FailAppendAfter(0, /*torn=*/true);
    WriteBatch batch;
    for (uint64_t i = 1000; i < 1050; ++i) {
      batch.Put(Slice(K(i)), Slice("torn"));
    }
    Status s = db->Write(synced, &batch);
    EXPECT_FALSE(s.ok()) << "a torn append must not be acknowledged";
    fault.ClearFaults();
    db.reset();
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok()) << "a torn tail is a normal crash, not corruption";
  std::string value;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, "pre");
  }
  // The torn batch record must drop WHOLE: no entry of it replays.
  for (uint64_t i = 1000; i < 1050; ++i) {
    EXPECT_TRUE(db->Get(Slice(K(i)), &value).IsNotFound())
        << "entry " << i << " of a torn batch surfaced after recovery";
  }
}

TEST(FaultInjectionTest, FailedRotationFailsWritesThenHeals) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  WriteOptions synced;
  synced.sync = true;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice("pre")).ok());
  }

  // Force a persist cycle whose WAL rotation cannot open the next log.
  fault.FailNewWritableFiles(true, "wal-");
  ASSERT_TRUE(db->FlushAll().ok());

  // The WAL is broken: every write — sync or not — must now fail rather
  // than append to a closed (or absent) log file.
  EXPECT_FALSE(db->Put(synced, Slice(K(500)), Slice("rejected")).ok());
  EXPECT_FALSE(db->Put(Slice(K(501)), Slice("rejected")).ok());

  // Heal the device; the next drain cycle repairs the log and writes
  // resume. Poll briefly — repair is asynchronous.
  fault.FailNewWritableFiles(false);
  Status resumed;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    resumed = db->Put(synced, Slice(K(600)), Slice("post-heal"));
    if (resumed.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(resumed.ok()) << "WAL never repaired: " << resumed.ToString();

  db.reset();
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
  }
  ASSERT_TRUE(db->Get(Slice(K(600)), &value).ok());
  EXPECT_EQ(value, "post-heal");
  // Writes rejected while broken must not resurface.
  EXPECT_TRUE(db->Get(Slice(K(500)), &value).IsNotFound());
  EXPECT_TRUE(db->Get(Slice(K(501)), &value).IsNotFound());
}

TEST(FaultInjectionTest, FailedSyncBreaksWalThenHeals) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db->Put(synced, Slice(K(1)), Slice("pre")).ok());

  // While fsyncs fail, EVERY sync=true write must fail — whether it
  // attempted the fsync itself or failed fast on the broken log (the
  // repair path is backoff-throttled, so most retries do the latter). A
  // sync acknowledgement requires a successful fsync, full stop.
  fault.FailSyncs(true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(db->Put(synced, Slice(K(100 + static_cast<uint64_t>(i))), Slice("unacked")).ok())
        << "a failed fsync must fail the sync writer (attempt " << i << ")";
  }
  EXPECT_GE(db->GetStats().wal_syncs, 1u) << "the first sync write must attempt the fsync";

  fault.FailSyncs(false);
  Status resumed;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    resumed = db->Put(synced, Slice(K(4)), Slice("post-heal"));
    if (resumed.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();

  // Crash: only acknowledged sync writes are promised to survive.
  CrashAndDrop(&db, &fault);
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  ASSERT_TRUE(db->Get(Slice(K(4)), &value).ok());
  EXPECT_EQ(value, "post-heal");
}

TEST(FaultInjectionTest, FailedPersistRetainsWalAndRetries) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  options.memory_budget_bytes = 128 << 10;  // small: persists trigger fast
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  // SSTable writes fail; the WAL keeps working.
  fault.FailNewWritableFiles(true, ".sst");
  WriteOptions synced;
  synced.sync = true;
  const std::string value_blob(256, 'p');
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice(value_blob)).ok()) << i;
  }
  // The overfilled Memtable forces persist attempts, which keep failing.
  uint64_t failures = 0;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    failures = db->GetStats().persist_failures;
    if (failures > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(failures, 0u) << "persist never attempted";
  // Satellite fix #2: the retired log must outlive the failed persist.
  EXPECT_GE(CountWalFiles(&fault), 2)
      << "failed persist deleted the WAL holding the unpersisted data";

  // Heal; the retry loop lands the run and FlushAll converges.
  fault.ClearFaults();
  ASSERT_TRUE(db->FlushAll().ok());
  EXPECT_GT(db->GetStats().disk.flushes, 0u);

  db.reset();
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 400; i += 29) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, value_blob);
  }
}

TEST(FaultInjectionTest, CrashDuringFailedPersistRecoversFromRetainedWal) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  options.memory_budget_bytes = 128 << 10;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    fault.FailNewWritableFiles(true, ".sst");
    WriteOptions synced;
    synced.sync = true;
    const std::string value_blob(256, 'q');
    for (uint64_t i = 0; i < 400; ++i) {
      ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice(value_blob)).ok()) << i;
    }
    uint64_t failures = 0;
    for (int attempt = 0; attempt < 2000; ++attempt) {
      failures = db->GetStats().persist_failures;
      if (failures > 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(failures, 0u);
    // Crash while the disk is still refusing runs.
    CrashAndDrop(&db, &fault);
  }
  // The disk heals; recovery must rebuild every acknowledged sync write
  // from the retained logs.
  fault.ClearFaults();
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok())
        << "acknowledged sync write " << i << " lost across failed-persist crash";
  }
}

TEST(FaultInjectionTest, MembufferResidentAckedWritesSurviveLoadDrivenPersist) {
  // Regression for the Membuffer escape hatch: an acked sync write's
  // entry can still be Membuffer-resident when a LOAD-DRIVEN persist
  // cycle runs (FlushAll drains the buffer first, so only natural cycles
  // hit this). The cycle retires and eventually deletes the write's WAL;
  // unless the persist pre-drains the Membuffer, the only durable copy
  // of the entry dies with the log. Crash right after the last ack —
  // while late entries are still draining — and demand everything back.
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = FaultOptions(&fault);
  options.memory_budget_bytes = 128 << 10;  // several natural persist cycles
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    WriteOptions synced;
    synced.sync = true;
    const std::string value_blob(256, 'm');
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(db->Put(synced, Slice(K(i)), Slice(value_blob)).ok()) << i;
    }
    uint64_t flushes = 0;
    for (int attempt = 0; attempt < 2000 && flushes == 0; ++attempt) {
      flushes = db->GetStats().disk.flushes;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(flushes, 0u) << "test needs load-driven persist cycles";
    CrashAndDrop(&db, &fault);
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok())
        << "acked sync write " << i << " lost to a load-driven persist's WAL deletion";
  }
}

TEST(FaultInjectionTest, ConcurrentSyncWritersAllSurviveCrash) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  fault.SetSyncDelayMicros(100);  // realistic fsync cost: groups form
  FloDbOptions options = FaultOptions(&fault);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 40;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        WriteOptions synced;
        synced.sync = true;
        for (uint64_t i = 0; i < kPerThread; ++i) {
          const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
          if (!db->Put(synced, Slice(K(key)), Slice("acked")).ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_FALSE(failed.load());
    const StoreStats stats = db->GetStats();
    EXPECT_EQ(stats.group_commit_writers, kThreads * kPerThread);
    EXPECT_GE(stats.group_commit_writers, stats.group_commit_groups);
    CrashAndDrop(&db, &fault);
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
      ASSERT_TRUE(db->Get(Slice(K(key)), &value).ok())
          << "acked group-commit write lost: thread " << t << " op " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-shard crash matrix (DESIGN.md §8)
// ---------------------------------------------------------------------------

// With 4 shards the router takes the top 2 bits of the first 8 key
// bytes, so quarter q of the keyspace is exactly shard q.
std::string QK(int shard, uint64_t i) {
  return EncodeKey(static_cast<uint64_t>(shard) * (uint64_t{1} << 62) + i);
}

FloDbOptions ShardedFaultOptions(Env* env) {
  FloDbOptions options;
  options.memory_budget_bytes = 2u << 20;
  options.enable_wal = true;
  options.shards = 4;
  options.disk.env = env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 32 << 10;
  return options;
}

// Kill point "after the marker, before/during the apply" collapses to
// "crash right after the ack" (the ack follows the marker): every
// acknowledged sync batch must recover WHOLE from prepares + markers
// alone, since nothing applied has persisted yet.
TEST(CrossShardFaultTest, AckedSyncBatchesSurviveCrashWhole) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = ShardedFaultOptions(&fault);
  constexpr uint64_t kBatches = 25;
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
    WriteOptions synced;
    synced.sync = true;
    for (uint64_t b = 0; b < kBatches; ++b) {
      WriteBatch batch;
      for (int q = 0; q < 4; ++q) {
        batch.Put(Slice(QK(q, b)), Slice("txn-" + std::to_string(b)));
      }
      ASSERT_TRUE(store->Write(synced, &batch).ok()) << b;
    }
    const StoreStats stats = store->GetStats();
    EXPECT_EQ(stats.txn_commits, kBatches);
    EXPECT_EQ(stats.txn_prepares, kBatches * 4) << "one prepare per touched shard";
    EXPECT_EQ(stats.txn_aborts, 0u);
    CrashAndDrop(&store, &fault);
  }
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
  std::string value;
  for (uint64_t b = 0; b < kBatches; ++b) {
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE(store->Get(Slice(QK(q, b)), &value).ok())
          << "acked cross-shard batch " << b << " lost its shard-" << q << " slice";
      EXPECT_EQ(value, "txn-" + std::to_string(b));
    }
  }
  EXPECT_EQ(store->GetStats().orphaned_prepares, 0u);
}

// A sync=false straddling batch, then one shard's WAL gets fsynced by an
// unrelated sync write, then power loss. Independent per-shard commits
// would recover the synced shard's slice and lose the other — a torn
// batch. Here the marker never became durable, so both durable prepares
// are orphans and the batch vanishes whole.
TEST(CrossShardFaultTest, CrashWithOneShardSyncedOrphansUnmarkedPrepares) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = ShardedFaultOptions(&fault);
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
    WriteBatch batch;
    batch.Put(Slice(QK(0, 7)), Slice("torn?"));
    batch.Put(Slice(QK(3, 7)), Slice("torn?"));
    ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());  // sync=false
    // An unrelated sync write to shard 0 fsyncs its WAL — which covers
    // the earlier prepare sitting in it.
    WriteOptions synced;
    synced.sync = true;
    ASSERT_TRUE(store->Put(synced, Slice(QK(0, 999)), Slice("anchor")).ok());
    CrashAndDrop(&store, &fault);
  }
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
  std::string value;
  ASSERT_TRUE(store->Get(Slice(QK(0, 999)), &value).ok()) << "acked sync write lost";
  for (int q : {0, 3}) {
    EXPECT_TRUE(store->Get(Slice(QK(q, 7)), &value).IsNotFound())
        << "shard " << q << ": a prepare without a marker must not replay";
  }
  EXPECT_GE(store->GetStats().orphaned_prepares, 1u);
}

// Mid-prepare torn tail: the prepare record for the LAST shard dies half
// written. The transaction aborts with nothing visible, now or after a
// crash.
TEST(CrossShardFaultTest, TornShardWalTailDuringStraddlingWrite) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = ShardedFaultOptions(&fault);
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
    fault.FailAppendAfter(0, /*torn=*/true, "shard-003");
    WriteOptions synced;
    synced.sync = true;
    WriteBatch batch;
    for (int q = 0; q < 4; ++q) {
      batch.Put(Slice(QK(q, 1)), Slice("v"));
    }
    Status s = store->Write(synced, &batch);
    ASSERT_FALSE(s.ok());
    std::string value;
    EXPECT_NE(s.ToString().find("aborted, nothing committed"), std::string::npos) << s.ToString();
    EXPECT_EQ(store->GetStats().txn_aborts, 1u);
    for (int q = 0; q < 4; ++q) {
      EXPECT_TRUE(store->Get(Slice(QK(q, 1)), &value).IsNotFound())
          << "aborted transaction leaked shard " << q;
    }
    fault.ClearFaults();
    CrashAndDrop(&store, &fault);
  }
  // The crash outcome matches the runtime report: nothing (the three
  // durable prepares are discarded as orphans).
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
  std::string value;
  for (int q = 0; q < 4; ++q) {
    EXPECT_TRUE(store->Get(Slice(QK(q, 1)), &value).IsNotFound())
        << "orphaned prepare for shard " << q << " replayed without a marker";
  }
  EXPECT_EQ(store->GetStats().orphaned_prepares, 3u);
}

// Kill point "between the prepares and the marker": the marker append
// itself fails. Every prepare is durable, the ack never happens, and
// recovery must discard all four prepares.
TEST(CrossShardTxnLogFaultTest, MarkerFailureAbortsAndOrphansEveryPrepare) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  FloDbOptions options = ShardedFaultOptions(&fault);
  {
    std::unique_ptr<ShardedKVStore> store;
    ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
    fault.FailAppendAfter(0, /*torn=*/false, "txn.log");
    WriteOptions synced;
    synced.sync = true;
    WriteBatch batch;
    for (int q = 0; q < 4; ++q) {
      batch.Put(Slice(QK(q, 2)), Slice("unacked"));
    }
    Status s = store->Write(synced, &batch);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("aborted, nothing committed"), std::string::npos) << s.ToString();
    EXPECT_EQ(store->GetStats().txn_aborts, 1u);
    std::string value;
    for (int q = 0; q < 4; ++q) {
      EXPECT_TRUE(store->Get(Slice(QK(q, 2)), &value).IsNotFound()) << q;
    }
    fault.ClearFaults();
    // A broken marker log latches: atomic writes keep failing until the
    // next Open rebuilds it — but the single-shard fast path (no marker)
    // must keep working.
    WriteBatch retry;
    retry.Put(Slice(QK(0, 3)), Slice("v"));
    retry.Put(Slice(QK(3, 3)), Slice("v"));
    EXPECT_FALSE(store->Write(synced, &retry).ok()) << "marker log must latch broken";
    EXPECT_TRUE(store->Put(synced, Slice(QK(1, 4)), Slice("single")).ok());
    CrashAndDrop(&store, &fault);
  }
  std::unique_ptr<ShardedKVStore> store;
  ASSERT_TRUE(ShardedKVStore::Open(options, &store).ok());
  std::string value;
  for (int q = 0; q < 4; ++q) {
    EXPECT_TRUE(store->Get(Slice(QK(q, 2)), &value).IsNotFound())
        << "unacked transaction leaked shard " << q << " across recovery";
  }
  ASSERT_TRUE(store->Get(Slice(QK(1, 4)), &value).ok());
  EXPECT_EQ(value, "single");
  EXPECT_GE(store->GetStats().orphaned_prepares, 4u);
  // Recovery seeds the id counter past every orphaned prepare's id, and
  // the rebuilt marker log accepts transactions again.
  EXPECT_GT(store->NextTxnId(), 1u);
  WriteOptions synced;
  synced.sync = true;
  WriteBatch healed;
  healed.Put(Slice(QK(0, 5)), Slice("healed"));
  healed.Put(Slice(QK(3, 5)), Slice("healed"));
  ASSERT_TRUE(store->Write(synced, &healed).ok());
  EXPECT_EQ(store->GetStats().txn_commits, 1u);
}

}  // namespace
}  // namespace flodb
