// FloDB scan semantics (Algorithm 3): range correctness across all
// levels, tombstone elision, limits, linearizability of master scans
// (pre-scan updates always included), concurrent scans (piggybacking),
// restart/fallback machinery under heavy writes. The election, restart
// and fallback branches each have a deterministic test that holds a scan
// mid-pass through ParkingEnv.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

using bench::SpreadKey;

constexpr uint64_t kSpace = 1 << 20;

std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, kSpace)); }

// Wraps an Env so a test can hold a scan inside a pass. The armed
// thread's reads of a table's first data block (file offset 0) each park
// until the test releases them. A pass that seeks to the table's first
// key reads that block exactly once, so each parked read is one pass.
class ParkingEnv final : public Env {
 public:
  explicit ParkingEnv(Env* base) : base_(base) {}

  // The calling thread's next `passes` first-block reads park.
  void ParkThisThread(int passes) {
    std::lock_guard<std::mutex> lock(mu_);
    thread_ = std::this_thread::get_id();
    to_park_ = passes;
  }

  // Waits until the n-th read (counted over the env's life) has parked;
  // false after 10 s.
  bool AwaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return parked_ >= n; });
  }

  // Lets the oldest parked read continue.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    ++released_;
    cv_.notify_all();
  }

  // Lets every read through from now on, so a failed test can join its
  // threads.
  void ReleaseAll() {
    std::lock_guard<std::mutex> lock(mu_);
    to_park_ = 0;
    released_ = std::numeric_limits<int>::max();
    cv_.notify_all();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<ParkingFile>(std::move(file), this);
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override { return base_->RemoveFile(fname); }
  Status CreateDir(const std::string& dirname) override { return base_->CreateDir(dirname); }
  Status GetFileSize(const std::string& fname, uint64_t* file_size) override {
    return base_->GetFileSize(fname, file_size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class ParkingFile final : public RandomAccessFile {
   public:
    ParkingFile(std::unique_ptr<RandomAccessFile> base, ParkingEnv* env)
        : base_(std::move(base)), env_(env) {}

    Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
      if (offset == 0) {
        env_->MaybePark();
      }
      return base_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    ParkingEnv* env_;
  };

  void MaybePark() {
    std::unique_lock<std::mutex> lock(mu_);
    if (to_park_ == 0 || std::this_thread::get_id() != thread_) {
      return;
    }
    --to_park_;
    const int ticket = ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ >= ticket; });
  }

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread::id thread_;
  int to_park_ = 0;
  int parked_ = 0;
  int released_ = 0;
};

class FloDBScanTest : public ::testing::Test {
 protected:
  FloDbOptions SmallOptions() {
    FloDbOptions options;
    options.memory_budget_bytes = 1 << 20;
    options.disk.env = &env_;
    options.disk.path = "/db";
    options.disk.sstable_target_bytes = 32 << 10;
    options.disk.block_bytes = 1024;
    return options;
  }

  // SmallOptions over parking_env_, with no block cache, so every pass
  // reads its table blocks through the env.
  FloDbOptions ParkingOptions() {
    FloDbOptions options = SmallOptions();
    options.disk.env = &parking_env_;
    options.disk.block_cache_bytes = 0;
    return options;
  }

  void Open(const FloDbOptions& options) { ASSERT_TRUE(FloDB::Open(options, &db_).ok()); }

  using ScanResult = std::vector<std::pair<std::string, std::string>>;

  MemEnv env_;
  ParkingEnv parking_env_{&env_};
  std::unique_ptr<FloDB> db_;
};

TEST_F(FloDBScanTest, EmptyStoreScanIsEmpty) {
  Open(SmallOptions());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(100)), 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(FloDBScanTest, ScanReturnsRangeInOrder) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(10)), Slice(K(20)), 0, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, K(10 + i));
    EXPECT_EQ(out[i].second, "v" + std::to_string(10 + i));
  }
}

TEST_F(FloDBScanTest, ScanSeesMembufferEntries) {
  // The pre-scan full drain must make buffer-resident writes visible.
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(5)), Slice("fresh")).ok());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(10)), 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, "fresh");
}

TEST_F(FloDBScanTest, ScanMergesMemoryAndDisk) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i * 2)), Slice("disk")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i * 2 + 1)), Slice("mem")).ok());
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(100)), 0, &out).ok());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0].second, "disk");
  EXPECT_EQ(out[1].second, "mem");
}

TEST_F(FloDBScanTest, ScanPrefersNewestVersion) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(7)), Slice("old")).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->Put(Slice(K(7)), Slice("new")).ok());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(100)), 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, "new");
}

TEST_F(FloDBScanTest, DeletedKeysAreElided) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  ASSERT_TRUE(db_->Delete(Slice(K(3))).ok());
  ASSERT_TRUE(db_->Delete(Slice(K(7))).ok());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(10)), 0, &out).ok());
  EXPECT_EQ(out.size(), 8u);
  for (const auto& [key, value] : out) {
    EXPECT_NE(key, K(3));
    EXPECT_NE(key, K(7));
  }
}

TEST_F(FloDBScanTest, DeletedOnDiskStaysElided) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("v")).ok());
  ASSERT_TRUE(db_->Put(Slice(K(2)), Slice("v")).ok());
  ASSERT_TRUE(db_->Delete(Slice(K(1))).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(10)), 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, K(2));
}

TEST_F(FloDBScanTest, LimitCapsResults) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(), 25, &out).ok());
  EXPECT_EQ(out.size(), 25u);
  EXPECT_EQ(out[0].first, K(0));
  EXPECT_EQ(out[24].first, K(24));
}

TEST_F(FloDBScanTest, LimitCountsOnlyLiveKeys) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Delete(Slice(K(i * 2))).ok());  // delete evens
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(), 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);  // the ten odd keys
  for (const auto& [key, value] : out) {
    const uint64_t logical = DecodeKey(Slice(key)) / ((~uint64_t{0}) / kSpace);
    EXPECT_EQ(logical % 2, 1u) << logical;
  }
}

TEST_F(FloDBScanTest, MasterScanIsLinearizable) {
  // Every update completed before the scan starts must be in the result.
  Open(SmallOptions());
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("before")).ok());
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(200)), 0, &out).ok());
  EXPECT_EQ(out.size(), 200u);
  for (const auto& [key, value] : out) {
    EXPECT_EQ(value, "before");
  }
}

TEST_F(FloDBScanTest, ScansWithConcurrentWritersStayConsistent) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("00000000")).ok());
  }
  std::atomic<bool> stop{false};
  // Writers continually rewrite the whole value of random keys with a
  // single repeated digit; a torn/mixed-snapshot result would show a
  // value containing different digits.
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 1);
      int i = 0;
      while (!stop.load()) {
        const char digit = static_cast<char>('1' + (i++ % 9));
        db_->Put(Slice(K(rng.Uniform(500))), Slice(std::string(8, digit)));
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    ScanResult out;
    ASSERT_TRUE(db_->Scan(Slice(K(100)), Slice(K(200)), 0, &out).ok());
    EXPECT_EQ(out.size(), 100u);
    for (const auto& [key, value] : out) {
      ASSERT_EQ(value.size(), 8u);
      for (char c : value) {
        ASSERT_EQ(c, value[0]) << "torn value in scan result";
      }
    }
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.scans, 20u);
  EXPECT_GT(stats.master_scans, 0u);
}

// Every master scan swaps in the spare Membuffer that the previous scan
// reset. A spare reset while a reader still used it, or one that kept a
// stale bucket, would surface here as a value older than one already
// acknowledged when the scan (or Get) began.
TEST_F(FloDBScanTest, MasterScansOverRecycledMembuffersMissNoAckedWrite) {
  Open(SmallOptions());
  constexpr uint64_t kKeys = 200;
  constexpr int kScans = 500;
  auto encode = [](uint64_t v) {
    std::string s = std::to_string(v);
    return std::string(12 - s.size(), '0') + s;
  };
  std::vector<std::atomic<uint64_t>> acked(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice(encode(0))).ok());
  }
  // Writer w owns the keys i with i % 2 == w and writes them round-robin
  // with its own increasing counter, so each key's values only increase.
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_failed{false};
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t v = 1; !stop.load(); ++v) {
        for (uint64_t i = w; i < kKeys && !stop.load(); i += 2) {
          if (!db_->Put(Slice(K(i)), Slice(encode(v))).ok()) {
            writer_failed.store(true);
            return;
          }
          acked[i].store(v);
        }
      }
    });
  }
  // Gets probe both buffers of the pair, including the immutable one a
  // cleanup is about to reset.
  std::atomic<uint64_t> stale_gets{0};
  threads.emplace_back([&] {
    std::string value;
    for (uint64_t i = 0; !stop.load(); i = (i + 1) % kKeys) {
      const uint64_t before = acked[i].load();
      if (!db_->Get(Slice(K(i)), &value).ok() || std::stoull(value) < before) {
        stale_gets.fetch_add(1);
      }
    }
  });

  // One scanner thread: every scan is a master.
  std::vector<uint64_t> acked_before(kKeys);
  std::string failure;
  for (int scan = 0; scan < kScans && failure.empty(); ++scan) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      acked_before[i] = acked[i].load();
    }
    ScanResult out;
    Status s = db_->Scan(Slice(K(0)), Slice(K(kKeys)), 0, &out);
    if (!s.ok() || out.size() != kKeys) {
      failure = "scan " + std::to_string(scan) + ": " + s.ToString() + ", " +
                std::to_string(out.size()) + " keys";
      break;
    }
    for (uint64_t i = 0; i < kKeys && failure.empty(); ++i) {
      if (out[i].first != K(i) || std::stoull(out[i].second) < acked_before[i]) {
        failure = "scan " + std::to_string(scan) + " lost an acknowledged write of key " +
                  std::to_string(i);
      }
    }
  }
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failure, "");
  EXPECT_EQ(stale_gets.load(), 0u);
  EXPECT_FALSE(writer_failed.load());
  EXPECT_GE(db_->GetStats().master_scans, static_cast<uint64_t>(kScans));
}

TEST_F(FloDBScanTest, ConcurrentScansPiggyback) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random64 rng(9);
    while (!stop.load()) {
      db_->Put(Slice(K(rng.Uniform(1000))), Slice("w"));
    }
  });

  std::vector<std::thread> scanners;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        ScanResult out;
        Status s = db_->Scan(Slice(K(static_cast<uint64_t>(t) * 100)),
                             Slice(K(static_cast<uint64_t>(t) * 100 + 50)), 0, &out);
        if (!s.ok() || out.size() != 50) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& s : scanners) {
    s.join();
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.scans, 40u);
  // Every scan was either a master or piggybacked onto one. (Whether any
  // piggybacking happened depends on actual overlap, which a single-core
  // scheduler may not produce — OverlappingScanPiggybacksOnParkedMaster
  // covers the branch deterministically.)
  EXPECT_EQ(stats.master_scans + stats.piggyback_scans, 40u);
}

// A scan that begins while another scan runs piggybacks on its published
// seq: it returns while the master is still parked inside its first pass.
TEST_F(FloDBScanTest, OverlappingScanPiggybacksOnParkedMaster) {
  Open(ParkingOptions());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  ScanResult master_out;
  Status master_status;
  std::thread master([&] {
    parking_env_.ParkThisThread(1);
    master_status = db_->Scan(Slice(K(0)), Slice(K(100)), 0, &master_out);
  });
  const bool parked = parking_env_.AwaitParked(1);

  std::atomic<bool> returned{false};
  ScanResult piggyback_out;
  Status piggyback_status;
  std::thread piggyback([&] {
    piggyback_status = db_->Scan(Slice(K(0)), Slice(K(100)), 0, &piggyback_out);
    returned.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_parked = returned.load();
  const StoreStats stats = db_->GetStats();
  parking_env_.ReleaseAll();
  piggyback.join();
  master.join();

  EXPECT_TRUE(parked) << "the master never read its table";
  EXPECT_TRUE(returned_while_parked) << "the second scan waited for the master";
  EXPECT_EQ(stats.master_scans, 1u);
  EXPECT_EQ(stats.piggyback_scans, 1u);
  EXPECT_TRUE(piggyback_status.ok()) << piggyback_status.ToString();
  EXPECT_EQ(piggyback_out.size(), 100u);
  EXPECT_TRUE(master_status.ok()) << master_status.ToString();
  EXPECT_EQ(master_out.size(), 100u);
}

// An in-place update ahead of the cursor breaks a pass, which restarts.
// After three broken passes the scan takes the fallback pass, which
// freezes writers, and returns the latest value.
TEST_F(FloDBScanTest, BrokenPassesRestartThenFallBack) {
  FloDbOptions options = ParkingOptions();
  options.enable_membuffer = false;  // a Put updates the Memtable in place
  Open(options);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("disk")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  // Each pass parks with its Memtable cursor on K(1), so it reaches K(8)
  // only after the test has overwritten it.
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("mem")).ok());
  ASSERT_TRUE(db_->Put(Slice(K(8)), Slice("v0")).ok());

  ScanResult out;
  Status status;
  std::thread scanner([&] {
    parking_env_.ParkThisThread(3);
    status = db_->Scan(Slice(K(0)), Slice(K(10)), 0, &out);
  });
  // A parked fallback pass holds writers off, so the test stops (and
  // fails) rather than overwrite then.
  bool validated_passes_parked = true;
  for (int pass = 1; pass <= 3 && validated_passes_parked; ++pass) {
    validated_passes_parked =
        parking_env_.AwaitParked(pass) && db_->GetStats().fallback_scans == 0;
    if (validated_passes_parked) {
      EXPECT_TRUE(db_->Put(Slice(K(8)), Slice("v" + std::to_string(pass))).ok());
      parking_env_.Release();
    }
  }
  parking_env_.ReleaseAll();
  scanner.join();

  EXPECT_TRUE(validated_passes_parked);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[1].second, "mem");
  EXPECT_EQ(out[8].first, K(8));
  EXPECT_EQ(out[8].second, "v3");
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.master_scans, 1u);
  EXPECT_EQ(stats.scan_restarts, 3u);
  EXPECT_EQ(stats.fallback_scans, 1u);
}

// Writers that keep rewriting the scanned range break every validated
// pass; each scan still finishes, through its fallback pass.
TEST_F(FloDBScanTest, FallbackScanKeepsLiveness) {
  FloDbOptions options = ParkingOptions();
  options.enable_membuffer = false;  // every rewrite lands in the Memtable
  options.memory_budget_bytes = 64 << 20;  // no Memtable swap mid-test
  Open(options);
  constexpr uint64_t kKeys = 100;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("00000000")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  // Every key is also Memtable-resident, so each rewrite is an in-place
  // update that a parked pass must see.
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("00000000")).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> acks(2);
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 77);
      for (int i = 0; !stop.load(); ++i) {
        const char digit = static_cast<char>('1' + (i % 9));
        db_->Put(Slice(K(rng.Uniform(kKeys))), Slice(std::string(8, digit)));
        acks[t].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(10));
      }
    });
  }

  constexpr int kRounds = 5;
  bool validated_passes_parked = true;
  std::string failure;
  for (int round = 0; round < kRounds && validated_passes_parked && failure.empty(); ++round) {
    ScanResult out;
    Status status;
    std::thread scanner([&] {
      parking_env_.ParkThisThread(3);
      status = db_->Scan(Slice(K(0)), Slice(K(kKeys)), 0, &out);
    });
    for (int pass = 1; pass <= 3 && validated_passes_parked; ++pass) {
      // A parked fallback pass holds the writers off: stop waiting on them.
      validated_passes_parked = parking_env_.AwaitParked(round * 3 + pass) &&
                                db_->GetStats().fallback_scans == static_cast<uint64_t>(round);
      if (validated_passes_parked) {
        // Each writer's second ack after the park is a write that began
        // during it, so it carries a seq newer than the pass's.
        const uint64_t before[2] = {acks[0].load(), acks[1].load()};
        while (acks[0].load() < before[0] + 2 || acks[1].load() < before[1] + 2) {
          std::this_thread::yield();
        }
        parking_env_.Release();
      }
    }
    if (!validated_passes_parked) {
      parking_env_.ReleaseAll();
    }
    scanner.join();
    if (!status.ok() || out.size() != kKeys) {
      failure = "round " + std::to_string(round) + ": " + status.ToString() + ", " +
                std::to_string(out.size()) + " keys";
    }
    for (const auto& [key, value] : out) {
      if (value.size() != 8 || value.find_first_not_of(value[0]) != std::string::npos) {
        failure = "torn value in round " + std::to_string(round);
      }
    }
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_TRUE(validated_passes_parked);
  EXPECT_EQ(failure, "");
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.scans, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(stats.scan_restarts, 3u * kRounds);
  EXPECT_EQ(stats.fallback_scans, static_cast<uint64_t>(kRounds));
}

TEST_F(FloDBScanTest, UnboundedScanReturnsEverything) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 250; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i * 4)), Slice("v")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(), Slice(), 0, &out).ok());
  EXPECT_EQ(out.size(), 250u);
  // Sorted ascending.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

TEST_F(FloDBScanTest, ScanAfterManyFlushesSpansLevels) {
  FloDbOptions options = SmallOptions();
  options.disk.l0_compaction_trigger = 2;
  Open(options);
  const std::string payload(300, 'p');
  for (int round = 0; round < 6; ++round) {
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          db_->Put(Slice(K(i)), Slice("r" + std::to_string(round) + "_" + payload)).ok());
    }
    ASSERT_TRUE(db_->FlushAll().ok());
  }
  ScanResult out;
  ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(300)), 0, &out).ok());
  ASSERT_EQ(out.size(), 300u);
  for (const auto& [key, value] : out) {
    EXPECT_EQ(value.substr(0, 3), "r5_") << "newest round must win across levels";
  }
}

TEST_F(FloDBScanTest, ScanStatsTrackMachinery) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  ScanResult out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Scan(Slice(K(0)), Slice(K(50)), 0, &out).ok());
  }
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.scans, 5u);
  EXPECT_EQ(stats.master_scans + stats.piggyback_scans, 5u);
}

// ---- streaming ScanIterator (v2) ----

TEST_F(FloDBScanTest, IteratorMatchesVectorScan) {
  Open(SmallOptions());
  // Data spanning memory and disk, with deletions and overwrites.
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("old" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  for (uint64_t i = 0; i < 3000; i += 3) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("new" + std::to_string(i))).ok());
  }
  for (uint64_t i = 0; i < 3000; i += 7) {
    ASSERT_TRUE(db_->Delete(Slice(K(i))).ok());
  }

  ScanResult expected;
  ASSERT_TRUE(db_->Scan(Slice(), Slice(), 0, &expected).ok());

  ReadOptions ropts;
  ropts.scan_chunk_size = 128;  // force many chunk boundaries
  auto it = db_->NewScanIterator(ropts, Slice(), Slice());
  ScanResult streamed;
  for (; it->Valid(); it->Next()) {
    streamed.emplace_back(it->key().ToString(), it->value().ToString());
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_LE(it->MaxBufferedEntries(), 128u);
  ASSERT_EQ(streamed.size(), expected.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i]) << "divergence at index " << i;
  }
  EXPECT_EQ(db_->GetStats().scans, 2u);  // the vector Scan and the iterator
}

TEST_F(FloDBScanTest, IteratorStreamsMillionKeysBounded) {
  // A 1M-key range must stream through a bounded buffer instead of
  // materializing: the observable ceiling is the chunk size.
  FloDbOptions options = SmallOptions();
  options.memory_budget_bytes = 4 << 20;
  options.disk.sstable_target_bytes = 4 << 20;  // keep the file count sane at 1M keys
  Open(options);
  constexpr uint64_t kKeys = 1'000'000;
  WriteBatch batch;
  KeyBuf key_buf;
  for (uint64_t i = 0; i < kKeys; ++i) {
    batch.Put(key_buf.Set(SpreadKey(i, kKeys)), Slice("v"));
    if (batch.Count() == 512) {
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
      batch.Clear();
    }
  }
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db_->FlushAll().ok());

  ReadOptions ropts;
  ropts.scan_chunk_size = 512;
  auto it = db_->NewScanIterator(ropts, Slice(), Slice());
  uint64_t count = 0;
  std::string prev;
  for (; it->Valid(); it->Next()) {
    if (count > 0) {
      ASSERT_LT(prev, it->key().ToString()) << "stream must be sorted and duplicate-free";
    }
    prev.assign(it->key().data(), it->key().size());
    ++count;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(count, kKeys);
  EXPECT_LE(it->MaxBufferedEntries(), 512u)
      << "the iterator must never materialize more than one chunk";
}

TEST_F(FloDBScanTest, IteratorConsistentUnderConcurrentWriters) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("00000000")).ok());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) + 1);
      int i = 0;
      while (!stop.load()) {
        const char digit = static_cast<char>('1' + (i++ % 9));
        db_->Put(Slice(K(rng.Uniform(500))), Slice(std::string(8, digit)));
      }
    });
  }

  // Writers only overwrite the fixed key set, so every stream must see
  // exactly keys 0..499, sorted, each with an untorn value.
  for (int round = 0; round < 10; ++round) {
    ReadOptions ropts;
    ropts.scan_chunk_size = 64;
    auto it = db_->NewScanIterator(ropts, Slice(K(0)), Slice(K(500)));
    uint64_t expected_key = 0;
    for (; it->Valid(); it->Next(), ++expected_key) {
      ASSERT_EQ(it->key().ToString(), K(expected_key));
      const std::string value = it->value().ToString();
      ASSERT_EQ(value.size(), 8u);
      for (char c : value) {
        ASSERT_EQ(c, value[0]) << "torn value in streamed result";
      }
    }
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(expected_key, 500u);
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
}

TEST_F(FloDBScanTest, IteratorSurvivesMembufferRotationMidIteration) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("stable")).ok());
  }
  ReadOptions ropts;
  ropts.scan_chunk_size = 50;
  auto it = db_->NewScanIterator(ropts, Slice(K(0)), Slice(K(300)));

  uint64_t seen = 0;
  for (; it->Valid() && seen < 100; it->Next()) {
    ASSERT_EQ(it->key().ToString(), K(seen));
    ++seen;
  }
  // Force a Membuffer swap + drain and a Memtable persist mid-iteration.
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(1000 + i)), Slice("churn")).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  for (; it->Valid(); it->Next()) {
    ASSERT_EQ(it->key().ToString(), K(seen));
    ++seen;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(seen, 300u) << "rotation/persist must not lose or duplicate streamed keys";
}

TEST_F(FloDBScanTest, IteratorOnEmptyRange) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(500)), Slice("outside")).ok());
  auto it = db_->NewScanIterator(ReadOptions(), Slice(K(0)), Slice(K(100)));
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(FloDBScanTest, InvertedScanBoundsYieldEmptyNotCrash) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(kSpace / 2)), Slice("v")).ok());
  // low > high is an immediately exhausted scan, not an error.
  ScanResult out = {{"stale", "stale"}};
  ASSERT_TRUE(db_->Scan(Slice(K(kSpace - 1)), Slice(K(1)), 0, &out).ok());
  EXPECT_TRUE(out.empty());
  auto it = db_->NewScanIterator(ReadOptions(), Slice(K(kSpace - 1)), Slice(K(1)));
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

// The iterator exposes each entry's real sequence number, and an
// overwrite carries a newer one.
TEST_F(FloDBScanTest, IteratorThreadsRealSequenceNumbers) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("first")).ok());
  }
  std::vector<uint64_t> first_seqs;
  {
    auto it = db_->NewScanIterator(ReadOptions(), Slice(), Slice());
    for (; it->Valid(); it->Next()) {
      EXPECT_GE(it->seq(), 1u);
      first_seqs.push_back(it->seq());
    }
    ASSERT_EQ(first_seqs.size(), 4u);
  }
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("second")).ok());
  }
  auto it = db_->NewScanIterator(ReadOptions(), Slice(), Slice());
  size_t i = 0;
  for (; it->Valid(); it->Next(), ++i) {
    EXPECT_EQ(it->value().ToString(), "second");
    EXPECT_GT(it->seq(), first_seqs[i]) << "the overwrite must carry a newer seq";
  }
  EXPECT_EQ(i, 4u);
}

// A scan over an unreadable table fails with the table's error instead of
// returning the readable rest as if it were the whole range.
TEST_F(FloDBScanTest, CorruptTableFailsTheScan) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  db_.reset();

  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  int tables = 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      const std::string path = "/db/" + name;
      std::string data;
      ASSERT_TRUE(ReadFileToString(&env_, path, &data).ok());
      data[10] = static_cast<char>(data[10] ^ 0x1);  // a bit in the first data block
      ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), path, true).ok());
      ++tables;
    }
  }
  ASSERT_GT(tables, 0);

  Open(SmallOptions());
  ScanResult out;
  const Status s = db_->Scan(Slice(), Slice(), 0, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString() << " after " << out.size() << " entries";
}

}  // namespace
}  // namespace flodb
