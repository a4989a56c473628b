// Durability under injected storage faults (FaultInjectionEnv): the
// crash-recovery matrix of DESIGN.md §10. The invariant every test
// enforces: an acknowledged sync=true write is NEVER lost — across
// dropped unsynced data, torn WAL tails, failed WAL rotations, failed
// fsyncs and failed Memtable persists. sync=false writes may lose their
// unsynced tail (and one test shows they do).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
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
// past the last REAL sync is dropped.
void CrashAndDrop(std::unique_ptr<FloDB>* db, FaultInjectionEnv* fault) {
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

// A persisted log whose unlink fails must not be replayed at the next
// open: its records would take fresh seqs above every persisted one and
// shadow newer values. The MANIFEST's log number makes recovery skip and
// delete it.
TEST(FaultInjectionTest, FailedWalUnlinkIsNotReplayedOverNewerData) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  const FloDbOptions options = FaultOptions(&fault);
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  WriteOptions synced;
  synced.sync = true;

  fault.FailRemoveFiles(true, "wal-000001.log");
  ASSERT_TRUE(db->Put(synced, Slice(K(1)), Slice("v1")).ok());
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(base.FileExists("/db/wal-000001.log")) << "the injected unlink fault did not fire";
  fault.ClearFaults();
  ASSERT_TRUE(db->Put(synced, Slice(K(1)), Slice("v2")).ok());
  ASSERT_TRUE(db->FlushAll().ok());

  std::string value;
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "v2");
  db.reset();
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "v2") << "the stale log was replayed over the persisted value";
  EXPECT_FALSE(base.FileExists("/db/wal-000001.log")) << "recovery kept the stale log";
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

}  // namespace
}  // namespace flodb
