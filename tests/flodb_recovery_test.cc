// Crash recovery: WAL replay, manifest recovery, WAL rotation GC, and
// reopening after clean shutdowns.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/coding.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/wal.h"

namespace flodb {
namespace {

using bench::SpreadKey;

std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, 1 << 20)); }

FloDbOptions WalOptions(MemEnv* env) {
  FloDbOptions options;
  options.memory_budget_bytes = 512 << 10;
  options.enable_wal = true;
  options.disk.env = env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 32 << 10;
  return options;
}

TEST(FloDBRecoveryTest, WalReplayRestoresAcknowledgedWrites) {
  MemEnv env;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice("durable" + std::to_string(i))).ok());
    }
    // "Crash": destroy without FlushAll. The WAL file survives in env.
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 500; i += 23) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, "durable" + std::to_string(i));
  }
}

TEST(FloDBRecoveryTest, WalReplayLastWriteWins) {
  MemEnv env;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
    ASSERT_TRUE(db->Put(Slice(K(1)), Slice("first")).ok());
    ASSERT_TRUE(db->Put(Slice(K(1)), Slice("second")).ok());
    ASSERT_TRUE(db->Delete(Slice(K(2))).ok());
    ASSERT_TRUE(db->Put(Slice(K(2)), Slice("alive")).ok());
    ASSERT_TRUE(db->Put(Slice(K(3)), Slice("doomed")).ok());
    ASSERT_TRUE(db->Delete(Slice(K(3))).ok());
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "second");
  ASSERT_TRUE(db->Get(Slice(K(2)), &value).ok());
  EXPECT_EQ(value, "alive");
  EXPECT_TRUE(db->Get(Slice(K(3)), &value).IsNotFound());
}

TEST(FloDBRecoveryTest, TruncatedWalTailIsTolerated) {
  MemEnv env;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice("v")).ok());
    }
  }
  // Chop bytes off the live WAL (simulates a crash mid-append).
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  for (const std::string& name : children) {
    if (name.rfind("wal-", 0) == 0) {
      std::string data;
      ASSERT_TRUE(ReadFileToString(&env, "/db/" + name, &data).ok());
      data.resize(data.size() - 5);
      ASSERT_TRUE(WriteStringToFile(&env, Slice(data), "/db/" + name, false).ok());
    }
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  // All but (at most) the last record must be recovered.
  std::string value;
  for (uint64_t i = 0; i < 99; ++i) {
    EXPECT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
  }
}

TEST(FloDBRecoveryTest, PersistedDataSurvivesWithoutWal) {
  MemEnv env;
  FloDbOptions options = WalOptions(&env);
  options.enable_wal = false;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice(std::string(100, 'd'))).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 2000; i += 113) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
  }
}

// Recovery opens every live table, so a missing one fails the open,
// naming the file, instead of failing each later Get that reaches it.
TEST(FloDBRecoveryTest, MissingLiveTableFailsOpen) {
  MemEnv env;
  FloDbOptions options = WalOptions(&env);
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice(std::string(100, 'd'))).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  std::string victim;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "nothing was persisted";
  ASSERT_TRUE(env.RemoveFile("/db/" + victim).ok());

  std::unique_ptr<FloDB> db;
  const Status s = FloDB::Open(options, &db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(victim), std::string::npos) << s.ToString();
}

TEST(FloDBRecoveryTest, SequenceCounterSeededPastPersistedData) {
  MemEnv env;
  FloDbOptions options = WalOptions(&env);
  options.enable_wal = false;
  uint64_t seq_before;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(i)), Slice("v")).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    seq_before = db->CurrentSeq();
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  EXPECT_GE(db->CurrentSeq(), seq_before)
      << "a reopened store must not reissue old sequence numbers";
  // New writes must shadow recovered ones.
  ASSERT_TRUE(db->Put(Slice(K(1)), Slice("after-reopen")).ok());
  std::string value;
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "after-reopen");
}

TEST(FloDBRecoveryTest, OldWalFilesAreGarbageCollected) {
  MemEnv env;
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  // Enough writes for several memtable swaps (and thus WAL rotations).
  for (uint64_t i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(db->Put(Slice(K(i % 5000)), Slice(std::string(100, 'w'))).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  int wal_files = 0;
  for (const std::string& name : children) {
    if (name.rfind("wal-", 0) == 0) {
      ++wal_files;
    }
  }
  EXPECT_LE(wal_files, 2) << "retired WALs must be deleted after their memtable persists";
}

TEST(FloDBRecoveryTest, BatchReplaysAtomicallyAcrossCrash) {
  // A WriteBatch is one CRC-framed WAL record: chopping the log anywhere
  // inside that record must drop the WHOLE batch on recovery, while every
  // earlier record stays intact. Each cut point replays the identical
  // write sequence into a fresh env, then truncates the live WAL.
  //
  // The batch record's physical size: 8-byte frame header + 1 tag byte +
  // 1 varint count byte (50 < 128) + rep bytes.
  WriteBatch reference;
  for (uint64_t i = 0; i < 50; ++i) {
    reference.Put(Slice(K(1000 + i)), Slice("batched"));
  }
  const size_t batch_record_bytes = 8 + 1 + 1 + reference.rep().size();

  // Cut 0 bytes (control), 1 byte (CRC framing kills the record), half
  // the record, and all but one byte of it.
  for (const size_t cut : {size_t{0}, size_t{1}, batch_record_bytes / 2,
                           batch_record_bytes - 1}) {
    MemEnv env;
    {
      std::unique_ptr<FloDB> db;
      ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
      for (uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(db->Put(Slice(K(i)), Slice("pre")).ok());
      }
      WriteBatch batch;
      for (uint64_t i = 0; i < 50; ++i) {
        batch.Put(Slice(K(1000 + i)), Slice("batched"));
      }
      ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
      // "Crash": destroy without FlushAll; the WAL survives in env.
    }
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren("/db", &children).ok());
    for (const std::string& name : children) {
      if (name.rfind("wal-", 0) == 0 && cut > 0) {
        std::string data;
        ASSERT_TRUE(ReadFileToString(&env, "/db/" + name, &data).ok());
        ASSERT_GT(data.size(), cut);
        data.resize(data.size() - cut);
        ASSERT_TRUE(WriteStringToFile(&env, Slice(data), "/db/" + name, false).ok());
      }
    }

    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok()) << "cut=" << cut;
    std::string value;
    // Every pre-batch single write must always survive.
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << "cut=" << cut << " key=" << i;
      EXPECT_EQ(value, "pre");
    }
    // The batch is all-or-nothing: complete when untouched, absent
    // entirely for any cut inside its record.
    size_t batch_hits = 0;
    for (uint64_t i = 0; i < 50; ++i) {
      if (db->Get(Slice(K(1000 + i)), &value).ok()) {
        ++batch_hits;
      }
    }
    EXPECT_EQ(batch_hits, cut == 0 ? 50u : 0u)
        << "cut=" << cut << ": a torn batch record must never partially replay";
  }
}

TEST(FloDBRecoveryTest, BatchRecordsReplayInLogOrder) {
  // A hand-written log of several batch records recovers in log order —
  // last write wins across records, and a later tombstone hides an
  // earlier value.
  MemEnv env;
  env.CreateDir("/db");
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile("/db/wal-000001.log", &file).ok());
    WalWriter writer(std::move(file));
    auto add = [&](const WriteBatch& batch) {
      return writer.Add(WalRecord::Batch(static_cast<uint32_t>(batch.Count()), Slice(batch.rep())));
    };
    WriteBatch first;
    first.Put(Slice(K(1)), Slice("first"));
    first.Put(Slice(K(3)), Slice("doomed"));
    ASSERT_TRUE(add(first).ok());
    WriteBatch second;
    second.Put(Slice(K(1)), Slice("from-batch"));
    second.Put(Slice(K(2)), Slice("batch-only"));
    second.Delete(Slice(K(3)));
    ASSERT_TRUE(add(second).ok());
    WriteBatch third;
    third.Put(Slice(K(2)), Slice("last-wins"));
    ASSERT_TRUE(add(third).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(Slice(K(1)), &value).ok());
  EXPECT_EQ(value, "from-batch") << "a later record must shadow an earlier one";
  ASSERT_TRUE(db->Get(Slice(K(2)), &value).ok());
  EXPECT_EQ(value, "last-wins") << "the last record must shadow the earlier batch entry";
  EXPECT_TRUE(db->Get(Slice(K(3)), &value).IsNotFound());
}

TEST(FloDBRecoveryTest, SyncedBatchSurvivesCrash) {
  MemEnv env;
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
    WriteOptions sync_options;
    sync_options.sync = true;
    WriteBatch batch;
    for (uint64_t i = 0; i < 20; ++i) {
      batch.Put(Slice(K(i)), Slice("synced"));
    }
    ASSERT_TRUE(db->Write(sync_options, &batch).ok());
  }
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(WalOptions(&env), &db).ok());
  std::string value;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Get(Slice(K(i)), &value).ok()) << i;
    EXPECT_EQ(value, "synced");
  }
}

TEST(FloDBRecoveryTest, RepeatedReopenCycles) {
  MemEnv env;
  FloDbOptions options = WalOptions(&env);
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(db->Put(Slice(K(static_cast<uint64_t>(cycle) * 100 + i)),
                          Slice("c" + std::to_string(cycle)))
                      .ok());
    }
    // Check all previous cycles' data is still there.
    std::string value;
    for (int prev = 0; prev <= cycle; ++prev) {
      for (uint64_t i = 0; i < 100; i += 31) {
        ASSERT_TRUE(db->Get(Slice(K(static_cast<uint64_t>(prev) * 100 + i)), &value).ok())
            << "cycle " << cycle << " lost data from cycle " << prev;
        EXPECT_EQ(value, "c" + std::to_string(prev));
      }
    }
  }
}

// A WAL batch entry of type 4 (the value-pointer type of older,
// value-separating builds) fails replay with Corruption: the store never
// opens with that write silently dropped.
TEST(FloDBRecoveryTest, WalValuePointerEntryFailsReplay) {
  MemEnv env;
  std::string rep;
  rep.push_back(static_cast<char>(4));
  PutLengthPrefixedSlice(&rep, Slice(K(1)));
  PutLengthPrefixedSlice(&rep, Slice("pointer"));
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile("/db/wal-000001.log", &file).ok());
    WalWriter writer(std::move(file));
    ASSERT_TRUE(writer.Add(WalRecord::Batch(1, Slice(rep))).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::unique_ptr<FloDB> db;
  const Status s = FloDB::Open(WalOptions(&env), &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A directory written by the retired sharded store holds a SHARDING
// manifest and a txn.log next to per-shard subdirectories. Opening it as
// one store would read none of its data, so Open refuses it before
// creating any file of its own.
TEST(FloDBRecoveryTest, ShardedStoreDirectoryRefused) {
  const struct {
    const char* name;
    std::string contents;
  } markers[] = {
      {"SHARDING", "shards=4 prefix_skip=0\n"},
      // One commit marker for txn 300, as the router framed it.
      {"txn.log", std::string("\x69\xd2\x5b\x97\x03\x00\x00\x00\x01\xac\x02", 11)},
  };
  for (const auto& marker : markers) {
    SCOPED_TRACE(marker.name);
    MemEnv env;
    ASSERT_TRUE(env.CreateDir("/db").ok());
    ASSERT_TRUE(
        WriteStringToFile(&env, Slice(marker.contents), std::string("/db/") + marker.name, true)
            .ok());
    std::vector<std::string> before;
    ASSERT_TRUE(env.GetChildren("/db", &before).ok());

    std::unique_ptr<FloDB> db;
    const Status s = FloDB::Open(WalOptions(&env), &db);
    EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
    std::vector<std::string> after;
    ASSERT_TRUE(env.GetChildren("/db", &after).ok());
    EXPECT_EQ(after, before);
  }
}

// A shard's WAL could hold cross-shard prepare records, whose entries are
// visible only with the router's commit marker. Replay refuses one rather
// than guess.
TEST(FloDBRecoveryTest, WalPrepareRecordRefused) {
  MemEnv env;
  // Txn 300 over shards {0, 3}, one Put("key", "value"): the bytes the
  // sharded store's WAL writer produced.
  const std::string prepare(
      "\x6f\xf6\x56\xeb\x12\x00\x00\x00\x03\xac\x02\x02\x00"
      "\x03\x01\x00\x03\x6b\x65\x79\x05\x76\x61\x6c\x75\x65",
      26);
  ASSERT_TRUE(WriteStringToFile(&env, Slice(prepare), "/db/wal-000001.log", true).ok());
  std::unique_ptr<FloDB> db;
  const Status s = FloDB::Open(WalOptions(&env), &db);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
}

}  // namespace
}  // namespace flodb
