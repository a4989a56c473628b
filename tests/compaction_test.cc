// Leveled compaction: score-based picking, per-level bloom sizing, level
// invariants under churn, bounded space-amp, the FaultInjectionEnv crash
// matrix (torn compaction output, failed MANIFEST append, torn CURRENT
// update, manifest numbering across reopen), and reopen equivalence.

#include "flodb/disk/compaction.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/disk_component.h"
#include "flodb/disk/fault_env.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/memtable.h"

namespace flodb {
namespace {

// ---------------------------------------------------------------------------
// Picker units (versions fabricated through a VersionSet on MemEnv)
// ---------------------------------------------------------------------------

FileMetaData MakeFile(uint64_t number, uint64_t size, const std::string& smallest,
                      const std::string& largest) {
  FileMetaData f;
  f.number = number;
  f.file_size = size;
  f.entries = 1;
  f.smallest = smallest;
  f.largest = largest;
  f.smallest_seq = number;
  f.largest_seq = number;
  return f;
}

CompactionConfig SmallConfig() {
  CompactionConfig config;
  config.num_levels = 4;
  config.l0_compaction_trigger = 4;
  config.l1_max_bytes = 1000;
  config.level_size_multiplier = 10;
  return config;
}

class PickerTest : public ::testing::Test {
 protected:
  PickerTest() : versions_(&env_, "/db", SmallConfig().num_levels) {
    EXPECT_TRUE(versions_.Recover().ok());
  }

  void AddFiles(const std::vector<std::pair<int, FileMetaData>>& files) {
    VersionEdit edit;
    edit.added = files;
    ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  }

  MemEnv env_;
  VersionSet versions_;
  std::vector<bool> no_busy_ = std::vector<bool>(SmallConfig().num_levels, false);
};

TEST_F(PickerTest, MaxBytesForLevelFollowsRatio) {
  CompactionPicker picker(SmallConfig());
  EXPECT_EQ(picker.MaxBytesForLevel(1), 1000u);
  EXPECT_EQ(picker.MaxBytesForLevel(2), 10000u);
  EXPECT_EQ(picker.MaxBytesForLevel(3), 100000u);
}

TEST_F(PickerTest, EmptyVersionNeedsNoCompaction) {
  CompactionPicker picker(SmallConfig());
  CompactionJob job;
  EXPECT_FALSE(picker.NeedsCompaction(*versions_.Current()));
  EXPECT_FALSE(picker.Pick(*versions_.Current(), no_busy_, &job));
}

TEST_F(PickerTest, HighestScoreWins) {
  // L0 at exactly the trigger (score 1.0) vs L1 at 3x target (score 3.0):
  // the deeper, further-over-target level compacts first.
  AddFiles({{0, MakeFile(1, 100, "a", "b")},
            {0, MakeFile(2, 100, "a", "b")},
            {0, MakeFile(3, 100, "a", "b")},
            {0, MakeFile(4, 100, "a", "b")},
            {1, MakeFile(5, 3000, "c", "d")}});
  CompactionPicker picker(SmallConfig());
  CompactionJob job;
  ASSERT_TRUE(picker.Pick(*versions_.Current(), no_busy_, &job));
  EXPECT_EQ(job.level, 1);
  ASSERT_EQ(job.inputs_lo.size(), 1u);
  EXPECT_EQ(job.inputs_lo[0].number, 5u);
}

TEST_F(PickerTest, L0PickTakesEveryL0File) {
  AddFiles({{0, MakeFile(1, 100, "a", "m")},
            {0, MakeFile(2, 100, "b", "n")},
            {0, MakeFile(3, 100, "c", "o")},
            {0, MakeFile(4, 100, "d", "p")},
            {1, MakeFile(5, 10, "k", "z")}});
  CompactionPicker picker(SmallConfig());
  CompactionJob job;
  ASSERT_TRUE(picker.Pick(*versions_.Current(), no_busy_, &job));
  EXPECT_EQ(job.level, 0);
  EXPECT_EQ(job.inputs_lo.size(), 4u);  // overlapping: partial picks reorder history
  ASSERT_EQ(job.inputs_hi.size(), 1u);
  EXPECT_EQ(job.inputs_hi[0].number, 5u);
}

TEST_F(PickerTest, BusyLevelsAreSkipped) {
  AddFiles({{0, MakeFile(1, 100, "a", "b")},
            {0, MakeFile(2, 100, "a", "b")},
            {0, MakeFile(3, 100, "a", "b")},
            {0, MakeFile(4, 100, "a", "b")},
            {1, MakeFile(5, 3000, "c", "d")}});
  CompactionPicker picker(SmallConfig());
  CompactionJob job;
  std::vector<bool> busy = no_busy_;
  busy[2] = true;  // L1's output level is owned: the L1 job is ineligible
  ASSERT_TRUE(picker.Pick(*versions_.Current(), busy, &job));
  EXPECT_EQ(job.level, 0);
  busy[1] = true;  // now L0's output level is owned too: nothing to do
  EXPECT_FALSE(picker.Pick(*versions_.Current(), busy, &job));
}

TEST_F(PickerTest, TombstonesDropOnlyWhenOutputIsBottommost) {
  // A file at L2 overlapping the compaction range: tombstones written
  // into L1 must survive to shadow it.
  AddFiles({{0, MakeFile(1, 100, "a", "b")},
            {0, MakeFile(2, 100, "a", "b")},
            {0, MakeFile(3, 100, "a", "b")},
            {0, MakeFile(4, 100, "a", "b")},
            {2, MakeFile(5, 10, "a", "z")}});
  CompactionPicker picker(SmallConfig());
  CompactionJob job;
  ASSERT_TRUE(picker.Pick(*versions_.Current(), no_busy_, &job));
  EXPECT_EQ(job.level, 0);
  EXPECT_FALSE(job.drop_tombstones);

  VersionEdit drop;
  drop.deleted.emplace_back(2, 5);
  ASSERT_TRUE(versions_.LogAndApply(drop).ok());
  CompactionPicker fresh(SmallConfig());
  ASSERT_TRUE(fresh.Pick(*versions_.Current(), no_busy_, &job));
  EXPECT_EQ(job.level, 0);
  EXPECT_TRUE(job.drop_tombstones);
}

TEST(BloomBitsTest, FixedLadder) {
  const int expected[] = {12, 12, 10, 10, 6, 6, 6};  // one per level of a default tree
  for (int level = 0; level < 7; ++level) {
    EXPECT_EQ(BloomBitsForLevel(level), expected[level]) << "level " << level;
  }
}

// ---------------------------------------------------------------------------
// End-to-end over a real DiskComponent
// ---------------------------------------------------------------------------

class CompactionTest : public ::testing::Test {
 protected:
  DiskOptions SmallDisk(Env* env) {
    DiskOptions options;
    options.env = env;
    options.path = "/db";
    options.sstable_target_bytes = 8 << 10;
    options.block_bytes = 1024;
    options.num_levels = 5;
    options.l0_compaction_trigger = 4;
    options.l1_max_bytes = 16 << 10;
    options.level_size_multiplier = 4;
    options.compaction_threads = 0;  // tests drive CompactOnce themselves
    return options;
  }

  void OpenDisk(DiskOptions options) {
    disk_.reset();
    ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());
  }

  void FlushRange(uint64_t lo, uint64_t hi, uint64_t seq_base, const std::string& tag,
                  ValueType type = ValueType::kValue) {
    MemTable table(1 << 20);
    for (uint64_t k = lo; k < hi; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(tag + std::to_string(k)), seq_base + (k - lo), type);
    }
    MemTableIterator iter(&table);
    ASSERT_TRUE(disk_->AddRun(&iter).ok());
  }

  Status FlushRangeStatus(uint64_t lo, uint64_t hi, uint64_t seq_base, const std::string& tag) {
    MemTable table(1 << 20);
    for (uint64_t k = lo; k < hi; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(tag + std::to_string(k)), seq_base + (k - lo),
                ValueType::kValue);
    }
    MemTableIterator iter(&table);
    return disk_->AddRun(&iter);
  }

  // Drains all pending compaction work synchronously.
  void CompactFully() {
    bool did_work = true;
    while (did_work) {
      ASSERT_TRUE(disk_->CompactOnce(&did_work).ok());
    }
  }

  using Entry = std::tuple<std::string, uint64_t, ValueType, std::string>;

  // Freshest version of every key currently visible through the iterator.
  std::vector<Entry> DumpContents() {
    std::vector<Entry> entries;
    std::unique_ptr<Iterator> iter = disk_->NewIterator();
    std::string last_key;
    bool has_last = false;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      if (has_last && iter->key() == Slice(last_key)) {
        continue;  // shadowed older version
      }
      last_key.assign(iter->key().data(), iter->key().size());
      has_last = true;
      entries.emplace_back(last_key, iter->seq(), iter->type(), iter->value().ToString());
    }
    EXPECT_TRUE(iter->status().ok());
    return entries;
  }

  void CheckLevelInvariants() {
    std::shared_ptr<const Version> v = disk_->CurrentVersion();
    for (int level = 1; level < v->NumLevels(); ++level) {
      const auto& files = v->LevelFiles(level);
      for (size_t i = 0; i < files.size(); ++i) {
        EXPECT_LE(Slice(files[i].smallest).compare(Slice(files[i].largest)), 0)
            << "level " << level << " file " << files[i].number;
        if (i + 1 < files.size()) {
          EXPECT_LT(Slice(files[i].largest).compare(Slice(files[i + 1].smallest)), 0)
              << "level " << level << " files " << files[i].number << "/"
              << files[i + 1].number << " overlap";
        }
      }
    }
  }

  std::unique_ptr<DiskComponent> disk_;
};

TEST_F(CompactionTest, LevelsStayDisjointUnderChurn) {
  MemEnv env;
  OpenDisk(SmallDisk(&env));
  uint64_t seq = 1;
  for (int round = 0; round < 12; ++round) {
    // Growing ranges: every flush overwrites [0, 400) and adds a fresh
    // 400-key tail, so runs overlap AND the key space outgrows L1.
    const uint64_t hi = 400 * static_cast<uint64_t>(round + 1);
    FlushRange(0, hi, seq, "r" + std::to_string(round));
    seq += hi;
    bool did_work = false;
    ASSERT_TRUE(disk_->CompactOnce(&did_work).ok());
    CheckLevelInvariants();
  }
  CompactFully();
  CheckLevelInvariants();
  // Deep levels actually populated: this exercised more than L0 -> L1.
  std::shared_ptr<const Version> v = disk_->CurrentVersion();
  int deepest = 0;
  for (int level = 0; level < v->NumLevels(); ++level) {
    if (!v->LevelFiles(level).empty()) {
      deepest = level;
    }
  }
  EXPECT_GE(deepest, 2);
  // Newest round wins on the overwritten prefix.
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(123)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "r11123");
}

TEST_F(CompactionTest, OverwriteChurnConvergesToBoundedSpaceAmp) {
  MemEnv env;
  OpenDisk(SmallDisk(&env));
  const uint64_t kKeys = 1500;
  uint64_t seq = 1;
  for (int round = 0; round < 10; ++round) {
    FlushRange(0, kKeys, seq, "round" + std::to_string(round) + "-");
    seq += kKeys;
    bool did_work = false;
    ASSERT_TRUE(disk_->CompactOnce(&did_work).ok());
  }
  CompactFully();
  const DiskComponent::Stats stats = disk_->GetStats();
  uint64_t total_bytes = 0;
  for (const uint64_t b : stats.bytes_per_level) {
    total_bytes += b;
  }
  // Live data: kKeys * (8-byte key + ~11-byte value). Steady state holds
  // one fresh copy plus at most one shadowed copy per deeper level and
  // table metadata (index + bloom), so bound space-amp at 6x — without
  // compaction the 10 overwrite rounds would retain ~10x.
  const uint64_t live_estimate = kKeys * 19;
  EXPECT_LT(total_bytes, 6 * live_estimate)
      << "space-amp unbounded: " << total_bytes << " bytes for ~" << live_estimate << " live";
  EXPECT_LT(total_bytes, stats.bytes_flushed / 2)
      << "churn did not collapse: " << total_bytes << " of " << stats.bytes_flushed
      << " flushed bytes retained";
}

TEST_F(CompactionTest, TombstonesRetireAtBottomLevel) {
  MemEnv env;
  OpenDisk(SmallDisk(&env));
  FlushRange(0, 300, 1, "v");
  FlushRange(0, 300, 1000, "d", ValueType::kTombstone);
  FlushRange(300, 302, 2000, "pad");
  FlushRange(302, 304, 3000, "pad");
  CompactFully();
  // Everything merged to one bottom run: tombstones must be gone from the
  // iterator view, not just masked.
  for (const auto& entry : DumpContents()) {
    EXPECT_NE(std::get<2>(entry), ValueType::kTombstone)
        << "tombstone survived full compaction";
  }
  EXPECT_TRUE(disk_->Get(Slice(EncodeKey(5)), nullptr, nullptr, nullptr).IsNotFound());
}

TEST_F(CompactionTest, CompactRangeCollapsesRangeToBottom) {
  MemEnv env;
  OpenDisk(SmallDisk(&env));
  for (int round = 0; round < 4; ++round) {
    FlushRange(0, 400, 1 + 400 * static_cast<uint64_t>(round), "r" + std::to_string(round));
  }
  // Full-range manual compaction: empty Slices are open ends.
  ASSERT_TRUE(disk_->CompactRange(Slice(), Slice()).ok());
  CheckLevelInvariants();
  EXPECT_TRUE(disk_->CurrentVersion()->LevelFiles(0).empty());
  // Shadowed versions are physically gone: the raw iterator sees each key
  // exactly once, carrying the freshest round.
  {
    std::unique_ptr<Iterator> iter = disk_->NewIterator();
    size_t entries = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      EXPECT_EQ(iter->value().ToString(), "r3" + std::to_string(DecodeKey(iter->key())));
      ++entries;
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(entries, 400u);
  }
  // Deletions compacted to the bottommost level retire outright.
  FlushRange(0, 100, 2001, "d", ValueType::kTombstone);
  ASSERT_TRUE(disk_->CompactRange(Slice(), Slice()).ok());
  {
    std::unique_ptr<Iterator> iter = disk_->NewIterator();
    size_t entries = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      EXPECT_NE(iter->type(), ValueType::kTombstone);
      EXPECT_GE(DecodeKey(iter->key()), 100u);
      ++entries;
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(entries, 300u);
  }
  // A bounded range with fresh L0 on top: L0 inputs expand to the key-span
  // fixpoint, so the narrow request still drains every overlapping L0 run
  // (L0 runs span the whole keyspace here).
  FlushRange(0, 400, 3001, "r4");
  ASSERT_TRUE(disk_->CompactRange(Slice(EncodeKey(50)), Slice(EncodeKey(60))).ok());
  CheckLevelInvariants();
  EXPECT_TRUE(disk_->CurrentVersion()->LevelFiles(0).empty());
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(55)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "r455");
}

TEST_F(CompactionTest, ReopenEquivalence) {
  MemEnv env;
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);
  uint64_t seq = 1;
  for (int round = 0; round < 8; ++round) {
    FlushRange(0, 500, seq, "r" + std::to_string(round));
    seq += 500;
  }
  CompactFully();
  const std::vector<Entry> before = DumpContents();
  ASSERT_FALSE(before.empty());
  OpenDisk(options);  // close + reopen on the same env
  EXPECT_EQ(before, DumpContents());
  CheckLevelInvariants();
}

TEST_F(CompactionTest, PerLevelBloomBitsApplied) {
  MemEnv env;
  OpenDisk(SmallDisk(&env));
  FlushRange(0, 200, 1, "v");
  FlushRange(200, 400, 300, "v");
  FlushRange(400, 600, 600, "v");
  FlushRange(600, 800, 900, "v");
  CompactFully();
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(700)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "v700");
}

// ---------------------------------------------------------------------------
// Crash matrix (FaultInjectionEnv)
// ---------------------------------------------------------------------------

TEST_F(CompactionTest, PowerCutMidCompactionRecoversOldVersion) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);
  for (int round = 0; round < 4; ++round) {
    FlushRange(0, 300, 1 + 300 * static_cast<uint64_t>(round), "r" + std::to_string(round));
  }
  const std::vector<Entry> before = DumpContents();

  // Torn write into the compaction output, then power cut: the half-
  // written .sst must not survive into any version.
  env.FailAppendAfter(5, /*torn=*/true, ".sst");
  bool did_work = false;
  EXPECT_FALSE(disk_->CompactOnce(&did_work).ok());
  disk_.reset();
  env.ClearFaults();
  ASSERT_TRUE(env.DropUnsyncedFileData().ok());

  OpenDisk(options);
  EXPECT_EQ(before, DumpContents());
  // Open-time GC: every .sst on disk is referenced by the live version.
  std::set<uint64_t> live;
  std::shared_ptr<const Version> v = disk_->CurrentVersion();
  for (int level = 0; level < v->NumLevels(); ++level) {
    for (const FileMetaData& f : v->LevelFiles(level)) {
      live.insert(f.number);
    }
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  for (const std::string& name : children) {
    if (name.size() >= 5 && name.substr(name.size() - 4) == ".sst") {
      const uint64_t number = static_cast<uint64_t>(strtoull(name.c_str(), nullptr, 10));
      EXPECT_TRUE(live.count(number) != 0) << "orphan " << name << " survived open-time GC";
    }
  }
  // And the converse: no live file was deleted by the sweep.
  for (const uint64_t number : live) {
    char buf[32];
    snprintf(buf, sizeof(buf), "/db/%06llu.sst", static_cast<unsigned long long>(number));
    EXPECT_TRUE(env.FileExists(buf)) << "live file " << number << " deleted";
  }
}

TEST_F(CompactionTest, FailedManifestAppendKeepsOldVersionAndHeals) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);
  for (int round = 0; round < 4; ++round) {
    FlushRange(0, 300, 1 + 300 * static_cast<uint64_t>(round), "r" + std::to_string(round));
  }
  const std::vector<Entry> before = DumpContents();

  env.FailAppendAfter(0, /*torn=*/false, "MANIFEST");
  bool did_work = false;
  EXPECT_FALSE(disk_->CompactOnce(&did_work).ok());
  // The in-memory version is unchanged: reads keep working.
  EXPECT_EQ(before, DumpContents());

  // Fault cleared, the same job retries and succeeds.
  env.ClearFaults();
  ASSERT_TRUE(disk_->CompactOnce(&did_work).ok());
  EXPECT_TRUE(did_work);
  EXPECT_EQ(before, DumpContents());
  EXPECT_TRUE(disk_->CurrentVersion()->LevelFiles(0).empty());

  // Crash-consistent too: reopen lands on the new version.
  disk_.reset();
  ASSERT_TRUE(env.DropUnsyncedFileData().ok());
  OpenDisk(options);
  EXPECT_EQ(before, DumpContents());
}

TEST_F(CompactionTest, ManifestNumberingResumesAcrossReopen) {
  // Regression: manifest numbering used to restart at zero after reopen,
  // so the next snapshot reused the LIVE manifest's number — and a failed
  // write then deleted the only manifest on disk.
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);  // fresh DB: CURRENT -> MANIFEST-000001
  disk_.reset();

  OpenDisk(options);
  env.FailAppendAfter(0, /*torn=*/false, "MANIFEST");
  EXPECT_FALSE(FlushRangeStatus(0, 10, 1, "v").ok());
  env.ClearFaults();
  disk_.reset();

  // The live manifest must have been untouched by the failed attempt.
  OpenDisk(options);
  EXPECT_TRUE(disk_->Get(Slice(EncodeKey(1)), nullptr, nullptr, nullptr).IsNotFound());
  FlushRange(0, 10, 1, "v");
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(1)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(CompactionTest, TornCurrentUpdateKeepsOldManifest) {
  // CURRENT is repointed via temp file + rename; a torn write hits only
  // the temp, never the live pointer.
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);
  FlushRange(0, 100, 1, "keep");

  env.FailAppendAfter(0, /*torn=*/true, "CURRENT");
  EXPECT_FALSE(FlushRangeStatus(100, 200, 500, "lost").ok());
  env.ClearFaults();
  disk_.reset();
  ASSERT_TRUE(env.DropUnsyncedFileData().ok());

  OpenDisk(options);
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(50)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "keep50");
  EXPECT_TRUE(disk_->Get(Slice(EncodeKey(150)), nullptr, nullptr, nullptr).IsNotFound());
}

TEST_F(CompactionTest, StaleManifestsSweptAtOpen) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  DiskOptions options = SmallDisk(&env);
  OpenDisk(options);
  for (int round = 0; round < 6; ++round) {
    FlushRange(0, 50, 1 + 50 * static_cast<uint64_t>(round), "r");
  }
  disk_.reset();
  // Plant strays a crashed snapshot write could leave behind.
  ASSERT_TRUE(WriteStringToFile(&env, Slice("junk"), "/db/MANIFEST-000002", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env, Slice("junk"), "/db/CURRENT.tmp", false).ok());
  OpenDisk(options);
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  int manifests = 0;
  for (const std::string& name : children) {
    EXPECT_NE(name, "CURRENT.tmp");
    if (name.rfind("MANIFEST-", 0) == 0) {
      ++manifests;
    }
  }
  EXPECT_EQ(manifests, 1) << "stale manifests not swept";
  std::string value;
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(10)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "r10");
}

// KVStore::CompactRange on FloDB flushes memory first, so the whole
// range — Membuffer and Memtable entries included — ends below L0.
TEST(CompactRangeApiTest, FloDbFlushesMemoryThenCompactsBelowL0) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 512 << 10;
  options.disk.env = &env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 32 << 10;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  auto value_of = [](uint64_t i) { return "k" + std::to_string(i) + "-" + std::string(400, 'v'); };
  for (uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(db->Put(Slice(EncodeKey(i * 1315423911u)), Slice(value_of(i))).ok());
  }
  ASSERT_TRUE(db->CompactRange(Slice(), Slice()).ok());
  const StoreStats stats = db->GetStats();
  EXPECT_EQ(stats.disk.files_per_level[0], 0);
  EXPECT_GT(stats.disk.compactions, 0u);
  EXPECT_EQ(db->MembufferLiveEntries(), 0u);
  for (uint64_t i = 0; i < 256; ++i) {
    std::string value;
    ASSERT_TRUE(db->Get(Slice(EncodeKey(i * 1315423911u)), &value).ok());
    EXPECT_EQ(value, value_of(i));
  }
}

}  // namespace
}  // namespace flodb
