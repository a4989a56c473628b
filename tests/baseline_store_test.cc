// BaselineStore conformance across all four concurrency designs
// (LevelDB, HyperLevelDB, RocksDB, cLSM) and both memtable kinds:
// the same KVStore semantics must hold regardless of synchronization.

#include "flodb/baselines/baseline_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

using bench::SpreadKey;
using Concurrency = BaselineOptions::Concurrency;

std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, 1 << 20)); }

struct StoreParam {
  Concurrency concurrency;
  BaselineMemTable::Kind kind;
  const char* name;
};

class BaselineStoreTest : public ::testing::TestWithParam<StoreParam> {
 protected:
  void Open() {
    BaselineOptions options;
    options.name = GetParam().name;
    options.concurrency = GetParam().concurrency;
    options.memtable_kind = GetParam().kind;
    options.memtable_bytes = 256 << 10;
    options.disk.env = &env_;
    options.disk.path = "/db";
    options.disk.sstable_target_bytes = 32 << 10;
    options.disk.block_bytes = 1024;
    ASSERT_TRUE(BaselineStore::Open(options, &store_).ok());
  }

  MemEnv env_;
  std::unique_ptr<BaselineStore> store_;
};

TEST_P(BaselineStoreTest, PutGetDelete) {
  Open();
  ASSERT_TRUE(store_->Put(Slice(K(1)), Slice("v1")).ok());
  std::string value;
  ASSERT_TRUE(store_->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(store_->Delete(Slice(K(1))).ok());
  EXPECT_TRUE(store_->Get(Slice(K(1)), &value).IsNotFound());
}

TEST_P(BaselineStoreTest, VariableLengthKeysScanInUserKeyOrder) {
  // Regression for the internal-key comparator (DESIGN.md §10 era fix):
  // a key and a NUL-extension of it ("x" vs "x\0y") must order by user
  // key across Get, Scan and the streaming iterator — through the
  // memtable AND after a flush to disk. The iterator's one-entry chunks
  // put a resume boundary between "x" and "x\0y".
  Open();
  const std::string k_short("x");
  const std::string k_nul_ext(std::string("x") + '\0' + 'y');
  const std::string k_ext("xa");
  ASSERT_TRUE(store_->Put(Slice(k_ext), Slice("v-ext")).ok());
  ASSERT_TRUE(store_->Put(Slice(k_short), Slice("v-short")).ok());
  ASSERT_TRUE(store_->Put(Slice(k_nul_ext), Slice("v-nul")).ok());
  ASSERT_TRUE(store_->Put(Slice(k_short), Slice("v-short2")).ok());

  for (const bool flushed : {false, true}) {
    if (flushed) {
      ASSERT_TRUE(store_->FlushAll().ok());
    }
    std::string value;
    ASSERT_TRUE(store_->Get(Slice(k_short), &value).ok()) << "flushed=" << flushed;
    EXPECT_EQ(value, "v-short2");
    ASSERT_TRUE(store_->Get(Slice(k_nul_ext), &value).ok()) << "flushed=" << flushed;
    EXPECT_EQ(value, "v-nul");

    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(store_->Scan(Slice("w"), Slice("y"), 0, &out).ok());
    ASSERT_EQ(out.size(), 3u) << "flushed=" << flushed;
    EXPECT_EQ(out[0].first, k_short);
    EXPECT_EQ(out[0].second, "v-short2");
    EXPECT_EQ(out[1].first, k_nul_ext);
    EXPECT_EQ(out[2].first, k_ext);

    ReadOptions one_per_chunk;
    one_per_chunk.scan_chunk_size = 1;
    auto iter = store_->NewScanIterator(one_per_chunk, Slice("w"), Slice("y"));
    std::vector<std::string> streamed;
    for (; iter->Valid(); iter->Next()) {
      streamed.push_back(iter->key().ToString());
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(streamed, (std::vector<std::string>{k_short, k_nul_ext, k_ext}))
        << "flushed=" << flushed;
  }
}

TEST_P(BaselineStoreTest, OverwriteKeepsLatest) {
  Open();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(5)), Slice("v" + std::to_string(i))).ok());
  }
  std::string value;
  ASSERT_TRUE(store_->Get(Slice(K(5)), &value).ok());
  EXPECT_EQ(value, "v99");
}

TEST_P(BaselineStoreTest, DataSurvivesFlushToDisk) {
  Open();
  const std::string payload(300, 'p');
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice(payload)).ok());
  }
  ASSERT_TRUE(store_->FlushAll().ok());
  EXPECT_GT(store_->GetStats().disk.flushes, 0u);
  std::string value;
  for (uint64_t i = 0; i < 3000; i += 111) {
    ASSERT_TRUE(store_->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, payload);
  }
}

TEST_P(BaselineStoreTest, ScanReturnsSortedRange) {
  Open();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("s" + std::to_string(i))).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store_->Scan(Slice(K(50)), Slice(K(150)), 0, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, K(50 + i));
    EXPECT_EQ(out[i].second, "s" + std::to_string(50 + i));
  }
}

TEST_P(BaselineStoreTest, ScanElidesTombstonesAndOldVersions) {
  Open();
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("old")).ok());
  }
  for (uint64_t i = 0; i < 20; i += 2) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("new")).ok());
  }
  ASSERT_TRUE(store_->Delete(Slice(K(5))).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store_->Scan(Slice(K(0)), Slice(K(20)), 0, &out).ok());
  EXPECT_EQ(out.size(), 19u);
  for (const auto& [key, value] : out) {
    const uint64_t logical = DecodeKey(Slice(key)) / ((~uint64_t{0}) / (1 << 20));
    EXPECT_NE(logical, 5u);
    EXPECT_EQ(value, logical % 2 == 0 ? "new" : "old");
  }
}

TEST_P(BaselineStoreTest, ScanWithLimit) {
  Open();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("v")).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(store_->Scan(Slice(K(0)), Slice(), 7, &out).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST_P(BaselineStoreTest, ConcurrentWritersAllWritesSurvive) {
  Open();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KeyBuf buf;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(store_->Put(Slice(K(key)), Slice("t" + std::to_string(t))).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; i += 97) {
      const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
      ASSERT_TRUE(store_->Get(Slice(K(key)), &value).ok()) << key;
      EXPECT_EQ(value, "t" + std::to_string(t));
    }
  }
}

TEST_P(BaselineStoreTest, ReadersDuringWritesNeverError) {
  Open();
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    Random64 rng(1);
    while (!stop.load()) {
      store_->Put(Slice(K(rng.Uniform(500))), Slice("w"));
    }
  });
  std::thread reader([&] {
    Random64 rng(2);
    std::string value;
    while (!stop.load()) {
      Status s = store_->Get(Slice(K(rng.Uniform(500))), &value);
      if (!s.ok() && !s.IsNotFound()) {
        failed.store(true);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true);
  writer.join();
  reader.join();
  EXPECT_FALSE(failed.load());
}

TEST_P(BaselineStoreTest, ScansDuringWritesAreSnapshots) {
  Open();
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("11111111")).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random64 rng(3);
    int i = 0;
    while (!stop.load()) {
      const char digit = static_cast<char>('2' + (i++ % 8));
      store_->Put(Slice(K(rng.Uniform(300))), Slice(std::string(8, digit)));
    }
  });
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(store_->Scan(Slice(K(0)), Slice(K(300)), 0, &out).ok());
    EXPECT_EQ(out.size(), 300u);
    for (const auto& [key, value] : out) {
      for (char c : value) {
        ASSERT_EQ(c, value[0]) << "torn value: multi-versioned scan must be consistent";
      }
    }
  }
  stop.store(true);
  writer.join();
}

TEST_P(BaselineStoreTest, ChunkedIteratorMatchesScan) {
  Open();
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  for (uint64_t i = 0; i < 400; i += 5) {
    ASSERT_TRUE(store_->Delete(Slice(K(i))).ok());
  }

  std::vector<std::pair<std::string, std::string>> expected;
  ASSERT_TRUE(store_->Scan(Slice(), Slice(), 0, &expected).ok());

  ReadOptions ropts;
  ropts.scan_chunk_size = 32;  // force many resume boundaries
  auto it = store_->NewScanIterator(ropts, Slice(), Slice());
  std::vector<std::pair<std::string, std::string>> streamed;
  for (; it->Valid(); it->Next()) {
    streamed.emplace_back(it->key().ToString(), it->value().ToString());
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_LE(it->MaxBufferedEntries(), 32u);
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(store_->GetStats().scans, 2u);  // the vector Scan and the iterator
}

TEST_P(BaselineStoreTest, IteratorReportsTheWinningVersionSeq) {
  Open();
  uint64_t prev = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string value = "v" + std::to_string(round);
    ASSERT_TRUE(store_->Put(Slice(K(1)), Slice(value)).ok());
    auto it = store_->NewScanIterator(ReadOptions(), Slice(K(0)), Slice(K(2)));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->value().ToString(), value);
    // One writer: the overwrite just committed is the latest seq.
    EXPECT_EQ(it->seq(), store_->CommittedSeq());
    EXPECT_GT(it->seq(), prev) << "round " << round;
    prev = it->seq();
  }
  ASSERT_TRUE(store_->FlushAll().ok());
  auto it = store_->NewScanIterator(ReadOptions(), Slice(K(0)), Slice(K(2)));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->seq(), prev) << "a flush keeps the version's seq";
}

TEST_P(BaselineStoreTest, IteratorResumesPastAKeyDeletedBetweenChunks) {
  Open();
  // Keys 0..99 on disk (the tombstone then shadows a disk version), keys
  // 100..199 in the memtable.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("v")).ok());
    if (i == 99) {
      ASSERT_TRUE(store_->FlushAll().ok());
    }
  }
  for (const uint64_t base : {uint64_t{0}, uint64_t{100}}) {
    ReadOptions ropts;
    ropts.scan_chunk_size = 10;
    auto it = store_->NewScanIterator(ropts, Slice(K(base)), Slice(K(base + 100)));
    std::vector<std::string> streamed;
    for (; it->Valid(); it->Next()) {
      streamed.push_back(it->key().ToString());
      if (streamed.size() == 10) {
        // The last key of the first chunk is the resume key; the next
        // Next() fetches past it.
        ASSERT_TRUE(store_->Delete(Slice(K(base + 9))).ok());
      }
    }
    ASSERT_TRUE(it->status().ok());
    ASSERT_EQ(streamed.size(), 100u) << "base=" << base;
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(streamed[i], K(base + i)) << "base=" << base;
    }
  }
}

// A scan over an unreadable table fails with the table's error instead of
// returning the readable rest as if it were the whole range.
TEST_P(BaselineStoreTest, CorruptTableFailsTheScan) {
  Open();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(store_->FlushAll().ok());
  store_.reset();

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

  Open();
  std::vector<std::pair<std::string, std::string>> out;
  const Status s = store_->Scan(Slice(), Slice(), 0, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString() << " after " << out.size() << " entries";
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, BaselineStoreTest,
    ::testing::Values(
        StoreParam{Concurrency::kLevelDB, BaselineMemTable::Kind::kSkipList, "LevelDB"},
        StoreParam{Concurrency::kHyperLevelDB, BaselineMemTable::Kind::kSkipList, "Hyper"},
        StoreParam{Concurrency::kRocksDB, BaselineMemTable::Kind::kSkipList, "RocksDB"},
        StoreParam{Concurrency::kRocksDB, BaselineMemTable::Kind::kHashTable, "RocksDBHash"},
        StoreParam{Concurrency::kCLSM, BaselineMemTable::Kind::kSkipList, "CLSM"}),
    [](const ::testing::TestParamInfo<StoreParam>& info) { return info.param.name; });

TEST(BaselinePresetsTest, OpenAllPresets) {
  MemEnv env;
  DiskOptions disk;
  disk.env = &env;

  disk.path = "/ldb";
  std::unique_ptr<BaselineStore> ldb;
  ASSERT_TRUE(BaselineStore::Open(BaselineOptions::LevelDB(1 << 20, disk), &ldb).ok());
  EXPECT_EQ(ldb->Name(), "LevelDB-like");

  disk.path = "/hld";
  std::unique_ptr<BaselineStore> hld;
  ASSERT_TRUE(BaselineStore::Open(BaselineOptions::HyperLevelDB(1 << 20, disk), &hld).ok());
  EXPECT_EQ(hld->Name(), "HyperLevelDB-like");

  disk.path = "/rdb";
  std::unique_ptr<BaselineStore> rdb;
  ASSERT_TRUE(BaselineStore::Open(BaselineOptions::RocksDB(1 << 20, disk), &rdb).ok());
  EXPECT_EQ(rdb->Name(), "RocksDB-like");

  disk.path = "/clsm";
  std::unique_ptr<BaselineStore> clsm;
  ASSERT_TRUE(BaselineStore::Open(BaselineOptions::CLSM(1 << 20, disk), &clsm).ok());
  EXPECT_EQ(clsm->Name(), "RocksDB/cLSM-like");

  // Each preset keeps its design's compaction threads and memtable kind.
  EXPECT_EQ(BaselineOptions::LevelDB(1 << 20, disk).disk.compaction_threads, 1);
  EXPECT_EQ(BaselineOptions::HyperLevelDB(1 << 20, disk).disk.compaction_threads, 1);
  EXPECT_EQ(BaselineOptions::RocksDB(1 << 20, disk).disk.compaction_threads, 2);
  EXPECT_EQ(BaselineOptions::CLSM(1 << 20, disk).disk.compaction_threads, 2);
  const auto hash = BaselineMemTable::Kind::kHashTable;
  EXPECT_EQ(BaselineOptions::RocksDB(1 << 20, disk, hash).memtable_kind, hash);

  // Smoke-test each through the interface.
  for (KVStore* store : {ldb.get(), hld.get(), rdb.get(), clsm.get()}) {
    ASSERT_TRUE(store->Put(Slice(K(1)), Slice("v")).ok()) << store->Name();
    std::string value;
    ASSERT_TRUE(store->Get(Slice(K(1)), &value).ok()) << store->Name();
    EXPECT_EQ(value, "v");
  }
}

}  // namespace
}  // namespace flodb
