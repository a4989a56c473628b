// FloDB concurrency stress: mixed readers/writers/scanners racing with
// draining, persisting and compaction. Invariants checked:
//  * a Get never returns a value that was never written for that key;
//  * per-key monotonicity: once a writer-thread's own write completes,
//    that thread never reads an older version of the key it wrote;
//  * scans never return torn values and never miss committed prefixes.
// Plus the drainer's park/wake: an idle store uses no core, and a write
// after the drainer parks is drained at once.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
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

constexpr uint64_t kSpace = 1 << 20;
std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, kSpace)); }

FloDbOptions StressOptions(Env* env) {
  FloDbOptions options;
  options.memory_budget_bytes = 512 << 10;  // small: forces constant persists
  options.disk.env = env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 16 << 10;
  options.disk.block_bytes = 1024;
  options.disk.l0_compaction_trigger = 3;
  options.disk.l1_max_bytes = 64 << 10;
  return options;
}

TEST(FloDBConcurrentTest, WriterOwnKeyMonotonicity) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint key set; after writing version i it
      // must never read a version < i.
      std::string value;
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 100 + static_cast<uint64_t>(i % 100);
        const std::string written = std::to_string(i);
        if (!db->Put(Slice(K(key)), Slice(written)).ok()) {
          failed.store(true);
          break;
        }
        if (!db->Get(Slice(K(key)), &value).ok()) {
          ADD_FAILURE() << "own write lost: key " << key;
          failed.store(true);
          break;
        }
        // Value must be from this thread (same key partition) and >= i.
        if (std::stoi(value) < i) {
          ADD_FAILURE() << "stale read-own-write: wrote " << written << " read " << value;
          failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
}

TEST(FloDBConcurrentTest, MixedWorkloadNoPhantomValues) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  constexpr uint64_t kKeys = 300;
  // Values have the shape "<key>:<counter>" — a get must only ever see a
  // value whose embedded key matches.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 13 + 1);
      int counter = 0;
      while (!stop.load()) {
        const uint64_t key = rng.Uniform(kKeys);
        db->Put(Slice(K(key)), Slice(std::to_string(key) + ":" + std::to_string(counter++)));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 17 + 5);
      std::string value;
      while (!stop.load()) {
        const uint64_t key = rng.Uniform(kKeys);
        Status s = db->Get(Slice(K(key)), &value);
        if (s.ok()) {
          const size_t colon = value.find(':');
          if (colon == std::string::npos ||
              value.substr(0, colon) != std::to_string(key)) {
            ADD_FAILURE() << "phantom value for key " << key << ": " << value;
            failed.store(true);
          }
        } else if (!s.IsNotFound()) {
          ADD_FAILURE() << "get error: " << s.ToString();
          failed.store(true);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_FALSE(failed.load());
}

TEST(FloDBConcurrentTest, ScannersWritersReadersTogether) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  constexpr uint64_t kKeys = 400;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(Slice(K(i)), Slice("init")).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    Random64 rng(3);
    while (!stop.load()) {
      db->Put(Slice(K(rng.Uniform(kKeys))), Slice("update"));
    }
  });
  std::thread reader([&] {
    Random64 rng(5);
    std::string value;
    while (!stop.load()) {
      Status s = db->Get(Slice(K(rng.Uniform(kKeys))), &value);
      if (!s.ok() && !s.IsNotFound()) {
        failed.store(true);
      }
    }
  });
  std::thread scanner([&] {
    std::vector<std::pair<std::string, std::string>> out;
    while (!stop.load()) {
      Status s = db->Scan(Slice(K(100)), Slice(K(200)), 0, &out);
      if (!s.ok()) {
        failed.store(true);
        continue;
      }
      // All initial keys exist and are never deleted: a consistent scan
      // must return exactly the 100 keys in range.
      if (out.size() != 100) {
        ADD_FAILURE() << "scan returned " << out.size() << " of 100";
        failed.store(true);
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  writer.join();
  reader.join();
  scanner.join();
  EXPECT_FALSE(failed.load());
}

TEST(FloDBConcurrentTest, DeletesRacingWritesConverge) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  constexpr uint64_t kKeys = 100;
  std::atomic<bool> stop{false};
  std::thread putter([&] {
    Random64 rng(1);
    while (!stop.load()) {
      db->Put(Slice(K(rng.Uniform(kKeys))), Slice("live"));
    }
  });
  std::thread deleter([&] {
    Random64 rng(2);
    while (!stop.load()) {
      db->Delete(Slice(K(rng.Uniform(kKeys))));
    }
  });
  std::thread reader([&] {
    Random64 rng(3);
    std::string value;
    while (!stop.load()) {
      Status s = db->Get(Slice(K(rng.Uniform(kKeys))), &value);
      if (s.ok()) {
        ASSERT_EQ(value, "live");
      } else {
        ASSERT_TRUE(s.IsNotFound()) << s.ToString();
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true);
  putter.join();
  deleter.join();
  reader.join();

  // Quiesce: final state must be readable and flushable without errors.
  ASSERT_TRUE(db->FlushAll().ok());
}

TEST(FloDBConcurrentTest, ScanDrainsNeverLoseSpillingWrites) {
  // Regression: helpers draining the immutable Membuffer must not start
  // before the post-swap grace period — a writer that resolved the old
  // buffer pre-swap can still be completing an Add into a bucket a helper
  // already collected, and the write would vanish with the buffer.
  // Trigger: common-prefix keys collapse into ONE partition, so buckets
  // fill and writers spill (and help) constantly while scans swap buffers.
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  auto string_key = [](uint64_t id) {
    char buf[32];
    snprintf(buf, sizeof(buf), "queue:msg:%012llu", static_cast<unsigned long long>(id));
    return std::string(buf);
  };

  constexpr uint64_t kTotal = 30'000;
  std::atomic<uint64_t> next_id{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      while (true) {
        const uint64_t id = next_id.fetch_add(1);
        if (id >= kTotal) {
          return;
        }
        ASSERT_TRUE(db->Put(Slice(string_key(id)), Slice("payload")).ok());
      }
    });
  }
  std::thread scanner([&] {
    std::vector<std::pair<std::string, std::string>> out;
    while (!done.load()) {
      db->Scan(Slice(string_key(0)), Slice(), 500, &out);
    }
  });
  for (auto& t : producers) {
    t.join();
  }
  done.store(true);
  scanner.join();

  std::string value;
  uint64_t missing = 0;
  for (uint64_t id = 0; id < kTotal; ++id) {
    if (!db->Get(Slice(string_key(id)), &value).ok()) {
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0u) << "acknowledged writes vanished during scan drains";
}

TEST(FloDBConcurrentTest, SustainedOverloadKeepsAllAcknowledgedWrites) {
  MemEnv env;
  FloDbOptions options = StressOptions(&env);
  options.memory_budget_bytes = 256 << 10;  // very small => constant persist churn
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string payload(200, static_cast<char>('a' + t));
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(db->Put(Slice(K(key)), Slice(payload)).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(db->FlushAll().ok());

  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; i += 211) {
      const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
      ASSERT_TRUE(db->Get(Slice(K(key)), &value).ok()) << "lost write " << key;
      EXPECT_EQ(value[0], static_cast<char>('a' + t));
    }
  }
}

TEST(FloDBConcurrentTest, GroupCommitCoalescesConcurrentSyncWriters) {
  // N sync=true writers race through the WAL writer queue (DESIGN.md
  // §10). With a realistic fsync latency, writers pile up behind the
  // leader's Sync and commit in groups — the whole point of group
  // commit: far fewer fsyncs than writes, with every write still
  // readable afterwards. Runs under TSan via the `concurrent` label.
  MemEnv base;
  FaultInjectionEnv fault(&base);
  fault.SetSyncDelayMicros(500);
  FloDbOptions options = StressOptions(&fault);
  options.memory_budget_bytes = 4 << 20;  // roomy: no persist churn mid-test
  options.enable_wal = true;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WriteOptions synced;
      synced.sync = true;
      for (uint64_t i = 0; i < kPerThread && !failed.load(); ++i) {
        const uint64_t key = 500'000 + static_cast<uint64_t>(t) * 1000 + i;
        if (!db->Put(synced, Slice(K(key)), Slice(std::to_string(i))).ok()) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_FALSE(failed.load());

  const StoreStats stats = db->GetStats();
  const uint64_t writes = kThreads * kPerThread;
  EXPECT_EQ(stats.group_commit_writers, writes);
  EXPECT_GE(stats.group_commit_writers, stats.group_commit_groups);
  EXPECT_GE(stats.wal_syncs, 1u);
  EXPECT_LE(stats.wal_syncs, writes / 2)
      << "concurrent sync writers must share fsyncs, not issue one each";

  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t key = 500'000 + static_cast<uint64_t>(t) * 1000 + i;
      ASSERT_TRUE(db->Get(Slice(K(key)), &value).ok()) << "thread " << t << " op " << i;
    }
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// An open store with nothing to drain parks its drainer instead of
// polling the Membuffer: a busy-waiting drainer used about 0.95 cores.
TEST(FloDBConcurrentTest, IdleStoreUsesNoCore) {
  MemEnv env;
  FloDbOptions options = StressOptions(&env);
  options.memory_budget_bytes = 64u << 20;
  options.enable_wal = true;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  ASSERT_TRUE(db->Put(Slice(K(1)), Slice("v")).ok());

  const double cpu_before = ProcessCpuSeconds();
  const auto wall_before = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const double cpu = ProcessCpuSeconds() - cpu_before;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_before).count();
  EXPECT_LT(cpu / wall, 0.1) << "idle store used " << cpu / wall << " cores";
  EXPECT_GE(db->GetStats().drainer_parks, 1u);
}

// Lost-wakeup check: each round waits for the drainer to park, then puts
// a new key. A write that failed to wake the drainer would wait out the
// 50 ms timed wake; a woken drainer takes well under 10 ms.
TEST(FloDBConcurrentTest, PutAfterParkWakesDrainer) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(StressOptions(&env), &db).ok());

  constexpr int kCycles = 1000;
  constexpr auto kDrainBound = std::chrono::milliseconds(10);
  uint64_t parks = db->GetStats().drainer_parks;
  for (int i = 0; i < kCycles; ++i) {
    const auto park_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (db->GetStats().drainer_parks == parks) {
      ASSERT_LT(std::chrono::steady_clock::now(), park_deadline) << "drainer never parked";
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    parks = db->GetStats().drainer_parks;

    ASSERT_TRUE(db->Put(Slice(K(static_cast<uint64_t>(i))), Slice("v")).ok());
    const auto put_done = std::chrono::steady_clock::now();
    while (db->MembufferLiveEntries() != 0 &&
           std::chrono::steady_clock::now() - put_done < kDrainBound) {
      std::this_thread::yield();
    }
    ASSERT_EQ(db->MembufferLiveEntries(), 0u)
        << "cycle " << i << ": a put after the drainer parked was not drained within 10 ms";
  }
  EXPECT_EQ(db->GetStats().drained_entries, static_cast<uint64_t>(kCycles));
}

}  // namespace
}  // namespace flodb
