// DiskComponent: flush (AddRun), multi-level Get, compaction correctness
// (dedup, tombstone retirement at the bottom level), iterator views,
// recovery from MANIFEST, and file garbage collection.

#include "flodb/disk/disk_component.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "flodb/common/key_codec.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/memtable.h"

namespace flodb {
namespace {

class DiskComponentTest : public ::testing::Test {
 protected:
  DiskOptions SmallDisk() {
    DiskOptions options;
    options.env = &env_;
    options.path = "/db";
    options.sstable_target_bytes = 8 << 10;
    options.block_bytes = 1024;
    options.l0_compaction_trigger = 4;
    options.l1_max_bytes = 32 << 10;
    options.level_size_multiplier = 4;
    options.compaction_threads = 1;
    return options;
  }

  void OpenDisk(DiskOptions options) {
    ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());
  }

  // Flushes entries [lo, hi) with seqs starting at seq_base as one run.
  void FlushRange(uint64_t lo, uint64_t hi, uint64_t seq_base, const std::string& tag,
                  ValueType type = ValueType::kValue) {
    MemTable table(1 << 20);
    for (uint64_t k = lo; k < hi; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(tag + std::to_string(k)), seq_base + (k - lo), type);
    }
    MemTableIterator iter(&table);
    ASSERT_TRUE(disk_->AddRun(&iter).ok());
  }

  MemEnv env_;
  std::unique_ptr<DiskComponent> disk_;
};

TEST_F(DiskComponentTest, EmptyComponentGetMisses) {
  OpenDisk(SmallDisk());
  EXPECT_TRUE(disk_->Get(Slice(EncodeKey(1)), nullptr, nullptr, nullptr).IsNotFound());
}

TEST_F(DiskComponentTest, FlushThenGet) {
  OpenDisk(SmallDisk());
  FlushRange(0, 100, 1, "v");
  std::string value;
  uint64_t seq;
  ValueType type;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(42)), &value, &seq, &type).ok());
  EXPECT_EQ(value, "v42");
  EXPECT_TRUE(disk_->Get(Slice(EncodeKey(100)), nullptr, nullptr, nullptr).IsNotFound());
}

TEST_F(DiskComponentTest, NewerRunWinsOnOverlap) {
  OpenDisk(SmallDisk());
  FlushRange(0, 50, 1, "old");
  FlushRange(0, 50, 100, "new");
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(10)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "new10");
}

TEST_F(DiskComponentTest, CompactionPreservesNewestVersions) {
  OpenDisk(SmallDisk());
  // Enough overlapping runs to trigger L0 compaction several times.
  for (int round = 0; round < 10; ++round) {
    FlushRange(0, 200, static_cast<uint64_t>(round) * 1000 + 1,
               "r" + std::to_string(round) + "_");
  }
  disk_->WaitForCompactions();
  std::string value;
  for (uint64_t k = 0; k < 200; k += 13) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok()) << k;
    EXPECT_EQ(value, "r9_" + std::to_string(k)) << "latest round must win";
  }
  // Compactions must have moved data past L0.
  auto stats = disk_->GetStats();
  EXPECT_GT(stats.compactions, 0u);
  int deeper_files = 0;
  for (size_t level = 1; level < stats.files_per_level.size(); ++level) {
    deeper_files += stats.files_per_level[level];
  }
  EXPECT_GT(deeper_files, 0);
}

TEST_F(DiskComponentTest, TombstonesShadowOlderValues) {
  OpenDisk(SmallDisk());
  FlushRange(0, 50, 1, "live");
  FlushRange(10, 20, 100, "", ValueType::kTombstone);
  ValueType type;
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(15)), &value, nullptr, &type).ok());
  EXPECT_EQ(type, ValueType::kTombstone);
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(25)), &value, nullptr, &type).ok());
  EXPECT_EQ(type, ValueType::kValue);
}

TEST_F(DiskComponentTest, TombstonesRetireAtBottomLevel) {
  DiskOptions options = SmallDisk();
  options.l0_compaction_trigger = 2;
  OpenDisk(options);
  FlushRange(0, 100, 1, "v");
  FlushRange(0, 100, 1000, "", ValueType::kTombstone);
  // Force compactions until everything settles.
  FlushRange(200, 201, 2000, "x");
  FlushRange(202, 203, 2001, "x");
  disk_->WaitForCompactions();

  // After full compaction to the bottom-most populated level, tombstoned
  // keys disappear from iteration entirely.
  auto iter = disk_->NewIterator();
  int tombstones = 0;
  int live = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (iter->type() == ValueType::kTombstone) {
      ++tombstones;
    } else {
      ++live;
    }
  }
  // The tombstones either retired (compacted to bottom) or still shadow
  // the values; in both cases no live key 0..99 may surface first.
  std::string value;
  ValueType type;
  Status s = disk_->Get(Slice(EncodeKey(50)), &value, nullptr, &type);
  if (s.ok()) {
    EXPECT_EQ(type, ValueType::kTombstone);
  } else {
    EXPECT_TRUE(s.IsNotFound());
  }
  EXPECT_GE(live, 2);  // the two sentinel keys
}

TEST_F(DiskComponentTest, IteratorMergesAllLevels) {
  OpenDisk(SmallDisk());
  FlushRange(0, 50, 1, "a");
  FlushRange(50, 100, 100, "b");
  FlushRange(25, 75, 200, "c");  // overlaps both
  auto iter = disk_->NewIterator();
  std::map<uint64_t, std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const uint64_t k = DecodeKey(iter->key());
    if (seen.count(k) == 0) {
      seen[k] = iter->value().ToString();  // freshest surfaces first
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen[30], "c30");
  EXPECT_EQ(seen[10], "a10");
  EXPECT_EQ(seen[90], "b90");
}

TEST_F(DiskComponentTest, RecoveryRestoresData) {
  OpenDisk(SmallDisk());
  FlushRange(0, 500, 1, "persist");
  disk_->WaitForCompactions();
  disk_.reset();  // close

  OpenDisk(SmallDisk());  // reopen from MANIFEST
  std::string value;
  for (uint64_t k = 0; k < 500; k += 37) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok()) << k;
    EXPECT_EQ(value, "persist" + std::to_string(k));
  }
}

TEST_F(DiskComponentTest, RecoverySeedsSequenceCounter) {
  OpenDisk(SmallDisk());
  FlushRange(0, 10, 12345, "v");
  disk_.reset();
  OpenDisk(SmallDisk());
  EXPECT_GE(disk_->MaxPersistedSeq(), 12345u + 9u);
}

TEST_F(DiskComponentTest, ObsoleteFilesAreRemoved) {
  DiskOptions options = SmallDisk();
  options.l0_compaction_trigger = 2;
  OpenDisk(options);
  for (int round = 0; round < 8; ++round) {
    FlushRange(0, 100, static_cast<uint64_t>(round) * 1000 + 1, "r");
  }
  disk_->WaitForCompactions();

  // Every .sst on disk must be referenced by the current version.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  int sst_files = 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      ++sst_files;
    }
  }
  auto stats = disk_->GetStats();
  int referenced = 0;
  for (int n : stats.files_per_level) {
    referenced += n;
  }
  EXPECT_EQ(sst_files, referenced);
}

TEST_F(DiskComponentTest, IteratorPinsVersionAcrossCompaction) {
  DiskOptions options = SmallDisk();
  options.l0_compaction_trigger = 2;
  OpenDisk(options);
  FlushRange(0, 100, 1, "old");

  auto iter = disk_->NewIterator();
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());

  // Trigger compactions that obsolete the file the iterator reads.
  for (int round = 0; round < 6; ++round) {
    FlushRange(0, 100, static_cast<uint64_t>(round + 1) * 1000, "new");
  }
  disk_->WaitForCompactions();

  // The pinned iterator must still walk its snapshot safely.
  int count = 0;
  for (; iter->Valid(); iter->Next()) {
    ++count;
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(count, 100);
}

TEST_F(DiskComponentTest, MultithreadedCompactionProducesSameResults) {
  DiskOptions options = SmallDisk();
  options.compaction_threads = 3;
  options.l0_compaction_trigger = 2;
  OpenDisk(options);
  for (int round = 0; round < 12; ++round) {
    FlushRange(0, 300, static_cast<uint64_t>(round) * 1000 + 1, "r" + std::to_string(round) + "_");
  }
  disk_->WaitForCompactions();
  std::string value;
  for (uint64_t k = 0; k < 300; k += 7) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok()) << k;
    EXPECT_EQ(value, "r11_" + std::to_string(k));
  }
}

TEST_F(DiskComponentTest, FlushStormWithBackgroundCompactionLosesNothing) {
  // Regression for the pending-outputs race: GC running inside a
  // background compaction must never unlink a file that a concurrent
  // flush has created but not yet installed.
  DiskOptions options = SmallDisk();
  options.l0_compaction_trigger = 2;
  options.compaction_threads = 2;
  OpenDisk(options);
  for (int round = 0; round < 40; ++round) {
    FlushRange(0, 400, static_cast<uint64_t>(round) * 10'000 + 1,
               "s" + std::to_string(round) + "_");
  }
  disk_->WaitForCompactions();
  std::string value;
  for (uint64_t k = 0; k < 400; k += 11) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok()) << k;
    EXPECT_EQ(value, "s39_" + std::to_string(k));
  }
  // No orphaned or missing files: every .sst on disk is referenced.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  int sst = 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      ++sst;
    }
  }
  auto stats = disk_->GetStats();
  int referenced = 0;
  for (int n : stats.files_per_level) {
    referenced += n;
  }
  EXPECT_EQ(sst, referenced);
}

TEST_F(DiskComponentTest, EmptyRunIsNoop) {
  OpenDisk(SmallDisk());
  MemTable empty(1 << 20);
  MemTableIterator iter(&empty);
  ASSERT_TRUE(disk_->AddRun(&iter).ok());
  auto stats = disk_->GetStats();
  EXPECT_EQ(stats.flushes, 0u);
}

TEST_F(DiskComponentTest, StatsTrackWriteAmplification) {
  DiskOptions options = SmallDisk();
  options.l0_compaction_trigger = 2;
  OpenDisk(options);
  for (int round = 0; round < 6; ++round) {
    FlushRange(0, 200, static_cast<uint64_t>(round) * 500 + 1, "w");
  }
  disk_->WaitForCompactions();
  auto stats = disk_->GetStats();
  EXPECT_GT(stats.bytes_flushed, 0u);
  EXPECT_GT(stats.bytes_compacted_in, 0u);
  EXPECT_GT(stats.flushes, 0u);
}

TEST_F(DiskComponentTest, InvalidOptionsRejected) {
  DiskOptions options;  // no env/path
  std::unique_ptr<DiskComponent> disk;
  EXPECT_TRUE(DiskComponent::Open(options, &disk).IsInvalidArgument());
}

// Older builds could move large values into *.vlog files (value
// separation). Even an empty one marks a directory this build cannot
// read in full, so Open refuses it before touching anything.
TEST_F(DiskComponentTest, ValueLogFileRefused) {
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(), "/db/000007.vlog", true).ok());
  std::unique_ptr<DiskComponent> disk;
  const Status s = DiskComponent::Open(SmallDisk(), &disk);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_NE(s.ToString().find("value separation"), std::string::npos) << s.ToString();
  EXPECT_FALSE(env_.FileExists("/db/CURRENT")) << "a refused directory stays as it was";
}

}  // namespace
}  // namespace flodb
