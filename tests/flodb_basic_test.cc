// FloDB end-to-end basics: put/get/delete through all five levels
// (Membuffer, immutable Membuffer, Memtable, immutable Memtable, disk),
// spill behaviour, freshest-wins ordering, flush, and configuration
// validation.

#include "flodb/core/flodb.h"

#include <gtest/gtest.h>

#include <memory>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

using bench::SpreadKey;

class FloDBTest : public ::testing::Test {
 protected:
  FloDbOptions SmallOptions() {
    FloDbOptions options;
    options.memory_budget_bytes = 1 << 20;
    options.membuffer_fraction = 0.25;
    options.disk.env = &env_;
    options.disk.path = "/db";
    options.disk.l1_max_bytes = 64 << 10;
    options.disk.sstable_target_bytes = 32 << 10;
    options.disk.block_bytes = 1024;
    return options;
  }

  void Open(const FloDbOptions& options) { ASSERT_TRUE(FloDB::Open(options, &db_).ok()); }

  // Keys spread across the 64-bit domain so Membuffer partitions engage.
  static std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, 1 << 20)); }

  MemEnv env_;
  std::unique_ptr<FloDB> db_;
};

TEST_F(FloDBTest, PutGetRoundTrip) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("value1")).ok());
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "value1");
}

TEST_F(FloDBTest, GetMissingKey) {
  Open(SmallOptions());
  std::string value;
  EXPECT_TRUE(db_->Get(Slice(K(404)), &value).IsNotFound());
}

TEST_F(FloDBTest, OverwriteReturnsLatest) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("old")).ok());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("new")).ok());
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_F(FloDBTest, DeleteHidesKey) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("v")).ok());
  ASSERT_TRUE(db_->Delete(Slice(K(1))).ok());
  std::string value;
  EXPECT_TRUE(db_->Get(Slice(K(1)), &value).IsNotFound());
}

TEST_F(FloDBTest, DeleteOfMissingKeyIsOk) {
  Open(SmallOptions());
  EXPECT_TRUE(db_->Delete(Slice(K(999))).ok());
  std::string value;
  EXPECT_TRUE(db_->Get(Slice(K(999)), &value).IsNotFound());
}

TEST_F(FloDBTest, PutAfterDeleteResurrects) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("v1")).ok());
  ASSERT_TRUE(db_->Delete(Slice(K(1))).ok());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice("v2")).ok());
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(FloDBTest, MostWritesCompleteInMembuffer) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.puts, 1000u);
  EXPECT_GT(stats.membuffer_adds, stats.memtable_direct_adds)
      << "with a working drain, the Membuffer absorbs the bulk of writes";
}

TEST_F(FloDBTest, DataSurvivesDrainToMemtable) {
  Open(SmallOptions());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  db_->WaitUntilDrained();
  EXPECT_EQ(db_->MembufferLiveEntries(), 0u);
  std::string value;
  for (uint64_t i = 0; i < 500; i += 17) {
    ASSERT_TRUE(db_->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_F(FloDBTest, DataSurvivesPersistenceToDisk) {
  Open(SmallOptions());
  const std::string value_300(300, 'x');
  // Write enough to overflow the memtable target several times.
  for (uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice(value_300)).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  const StoreStats stats = db_->GetStats();
  EXPECT_GT(stats.disk.flushes, 0u) << "memtables must have been persisted";
  std::string value;
  for (uint64_t i = 0; i < 10'000; i += 333) {
    ASSERT_TRUE(db_->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, value_300);
  }
}

TEST_F(FloDBTest, FreshestWinsAcrossAllLevels) {
  Open(SmallOptions());
  // Old version forced all the way to disk...
  ASSERT_TRUE(db_->Put(Slice(K(7)), Slice("disk-version")).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  // ...newer version in the memtable...
  ASSERT_TRUE(db_->Put(Slice(K(7)), Slice("mem-version")).ok());
  db_->WaitUntilDrained();
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(7)), &value).ok());
  EXPECT_EQ(value, "mem-version");
  // ...newest version still in the membuffer.
  ASSERT_TRUE(db_->Put(Slice(K(7)), Slice("buffer-version")).ok());
  ASSERT_TRUE(db_->Get(Slice(K(7)), &value).ok());
  EXPECT_EQ(value, "buffer-version");
}

TEST_F(FloDBTest, TombstoneShadowsDiskValue) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(5)), Slice("persisted")).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->Delete(Slice(K(5))).ok());
  std::string value;
  EXPECT_TRUE(db_->Get(Slice(K(5)), &value).IsNotFound());
  // And after the tombstone itself reaches disk:
  ASSERT_TRUE(db_->FlushAll().ok());
  EXPECT_TRUE(db_->Get(Slice(K(5)), &value).IsNotFound());
}

TEST_F(FloDBTest, InPlaceUpdatesDoNotGrowMembuffer) {
  Open(SmallOptions());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(42)), Slice("same-size-" + std::to_string(i % 10))).ok());
  }
  EXPECT_LE(db_->MembufferLiveEntries(), 1u);
}

TEST_F(FloDBTest, NoMembufferModeWorks) {
  FloDbOptions options = SmallOptions();
  options.enable_membuffer = false;  // classic single-level memory (Fig 17)
  Open(options);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v")).ok());
  }
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.membuffer_adds, 0u);
  EXPECT_EQ(stats.memtable_direct_adds, 300u);
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(5)), &value).ok());
}

TEST_F(FloDBTest, SimpleInsertDrainModeWorks) {
  FloDbOptions options = SmallOptions();
  options.use_multi_insert = false;  // Fig 17 middle variant
  Open(options);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice("v" + std::to_string(i))).ok());
  }
  db_->WaitUntilDrained();
  std::string value;
  ASSERT_TRUE(db_->Get(Slice(K(123)), &value).ok());
  EXPECT_EQ(value, "v123");
}

TEST_F(FloDBTest, NoPersistenceModeDropsToDiskNothing) {
  FloDbOptions options = SmallOptions();
  options.enable_persistence = false;  // Fig 17 memory-component-only mode
  Open(options);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->Put(Slice(K(i)), Slice(std::string(200, 'x'))).ok());
  }
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.disk.flushes, 0u);
}

TEST_F(FloDBTest, StatsAreCounted) {
  Open(SmallOptions());
  db_->Put(Slice(K(1)), Slice("v"));
  db_->Put(Slice(K(2)), Slice("v"));
  db_->Delete(Slice(K(1)));
  std::string value;
  db_->Get(Slice(K(2)), &value);
  std::vector<std::pair<std::string, std::string>> out;
  db_->Scan(Slice(K(0)), Slice(), 10, &out);
  const StoreStats stats = db_->GetStats();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_EQ(stats.scans, 1u);
}

TEST_F(FloDBTest, InvalidOptionsRejected) {
  std::unique_ptr<FloDB> db;
  FloDbOptions options;  // persistence on, but no env/path
  EXPECT_TRUE(FloDB::Open(options, &db).IsInvalidArgument());

  FloDbOptions bad_fraction = SmallOptions();
  bad_fraction.membuffer_fraction = 1.5;
  EXPECT_TRUE(FloDB::Open(bad_fraction, &db).IsInvalidArgument());

  FloDbOptions wal_without_persist = SmallOptions();
  wal_without_persist.enable_persistence = false;
  wal_without_persist.enable_wal = true;
  EXPECT_TRUE(FloDB::Open(wal_without_persist, &db).IsInvalidArgument());
}

TEST_F(FloDBTest, EmptyAndLargeValues) {
  Open(SmallOptions());
  ASSERT_TRUE(db_->Put(Slice(K(1)), Slice()).ok());
  std::string value = "sentinel";
  ASSERT_TRUE(db_->Get(Slice(K(1)), &value).ok());
  EXPECT_TRUE(value.empty());

  const std::string big(1 << 18, 'B');
  ASSERT_TRUE(db_->Put(Slice(K(2)), Slice(big)).ok());
  ASSERT_TRUE(db_->Get(Slice(K(2)), &value).ok());
  EXPECT_EQ(value, big);
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->Get(Slice(K(2)), &value).ok());
  EXPECT_EQ(value, big);
}

TEST_F(FloDBTest, NameIsFloDB) {
  Open(SmallOptions());
  EXPECT_EQ(db_->Name(), "FloDB");
}

}  // namespace
}  // namespace flodb
