#include "flodb/disk/wal.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/coding.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  std::unique_ptr<WalWriter> NewWriter(const std::string& name) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(name, &file).ok());
    return std::make_unique<WalWriter>(std::move(file));
  }

  std::unique_ptr<WalReader> NewReader(const std::string& name) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile(name, &file).ok());
    return std::make_unique<WalReader>(std::move(file));
  }

  MemEnv env_;
};

// Appends `batch` as one WAL batch record.
Status AddBatch(WalWriter* writer, const WriteBatch& batch) {
  return writer->Add(WalRecord::Batch(static_cast<uint32_t>(batch.Count()), Slice(batch.rep())));
}

// Appends a one-entry batch record holding key -> value.
Status AddPut(WalWriter* writer, const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return AddBatch(writer, batch);
}

TEST_F(WalTest, RecordRoundTrip) {
  auto writer = NewWriter("/wal");
  ASSERT_TRUE(writer->AddRecord(Slice("record one")).ok());
  ASSERT_TRUE(writer->AddRecord(Slice("record two")).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = NewReader("/wal");
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record one");
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record two");
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_TRUE(reader->status().ok());
}

TEST_F(WalTest, EmptyLogReadsNothing) {
  auto writer = NewWriter("/wal");
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("/wal");
  std::string payload;
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_TRUE(reader->status().ok());
}

TEST_F(WalTest, BatchRecordsReplayInOrder) {
  auto writer = NewWriter("/wal");
  WriteBatch first;
  first.Put(Slice("k1"), Slice("v1"));
  first.Delete(Slice("k2"));
  ASSERT_TRUE(AddBatch(writer.get(), first).ok());
  ASSERT_TRUE(AddPut(writer.get(), Slice("k1"), Slice("v2")).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = NewReader("/wal");
  std::vector<std::tuple<std::string, std::string, ValueType>> replayed;
  ASSERT_TRUE(reader
                  ->ReplayUpdates([&](const Slice& key, const Slice& value, ValueType type) {
                    replayed.emplace_back(key.ToString(), value.ToString(), type);
                  })
                  .ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(std::get<0>(replayed[0]), "k1");
  EXPECT_EQ(std::get<1>(replayed[0]), "v1");
  EXPECT_EQ(std::get<2>(replayed[1]), ValueType::kTombstone);
  EXPECT_EQ(std::get<1>(replayed[2]), "v2");
}

TEST_F(WalTest, TruncatedTailStopsCleanly) {
  auto writer = NewWriter("/wal");
  ASSERT_TRUE(AddPut(writer.get(), Slice("k1"), Slice("v1")).ok());
  ASSERT_TRUE(AddPut(writer.get(), Slice("k2"), Slice("v2")).ok());
  ASSERT_TRUE(writer->Close().ok());

  // Simulate a crash mid-append: drop the last few bytes.
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "/wal", &data).ok());
  data.resize(data.size() - 3);
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/wal2", false).ok());

  auto reader = NewReader("/wal2");
  int count = 0;
  Status s = reader->ReplayUpdates(
      [&](const Slice&, const Slice&, ValueType) { ++count; });
  EXPECT_TRUE(s.ok()) << "truncated tail is a clean end, not corruption: " << s.ToString();
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, CorruptPayloadIsDetected) {
  auto writer = NewWriter("/wal");
  ASSERT_TRUE(AddPut(writer.get(), Slice("key"), Slice("value")).ok());
  ASSERT_TRUE(writer->Close().ok());

  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "/wal", &data).ok());
  data[10] = static_cast<char>(data[10] ^ 0xff);  // flip a payload byte
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/bad", false).ok());

  auto reader = NewReader("/bad");
  Status s = reader->ReplayUpdates([&](const Slice&, const Slice&, ValueType) {});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(WalTest, LargeRecords) {
  auto writer = NewWriter("/wal");
  const std::string big(1 << 20, 'W');
  ASSERT_TRUE(AddPut(writer.get(), Slice("bigkey"), Slice(big)).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = NewReader("/wal");
  std::string key, value;
  ASSERT_TRUE(reader
                  ->ReplayUpdates([&](const Slice& k, const Slice& v, ValueType) {
                    key = k.ToString();
                    value = v.ToString();
                  })
                  .ok());
  EXPECT_EQ(key, "bigkey");
  EXPECT_EQ(value, big);
}

// Prepare records (two-phase commit, DESIGN.md §8): the txn header round-
// trips, and the embedded entries replay ONLY when the prepare callback
// vouches for a commit marker — an unvouched prepare is skipped whole and
// later records still replay.
TEST_F(WalTest, PrepareRecordsReplayOnlyWhenVouchedFor) {
  WriteBatch committed_batch;
  committed_batch.Put(Slice("ka"), Slice("va"));
  committed_batch.Delete(Slice("kb"));
  WriteBatch orphaned_batch;
  orphaned_batch.Put(Slice("kx"), Slice("never"));
  std::string participants;  // shard set {1, 3}
  PutVarint32(&participants, 2);
  PutVarint32(&participants, 1);
  PutVarint32(&participants, 3);

  auto writer = NewWriter("/wal");
  ASSERT_TRUE(writer
                  ->Add(WalRecord::Prepare(7, Slice(participants),
                                           static_cast<uint32_t>(committed_batch.Count()),
                                           Slice(committed_batch.rep())))
                  .ok());
  ASSERT_TRUE(writer
                  ->Add(WalRecord::Prepare(9, Slice(participants),
                                           static_cast<uint32_t>(orphaned_batch.Count()),
                                           Slice(orphaned_batch.rep())))
                  .ok());
  ASSERT_TRUE(AddPut(writer.get(), Slice("after"), Slice("v")).ok());
  ASSERT_TRUE(writer->Close().ok());

  auto reader = NewReader("/wal");
  std::vector<std::tuple<std::string, std::string, ValueType>> replayed;
  std::vector<uint64_t> seen_txns;
  std::vector<std::vector<uint32_t>> seen_participants;
  ASSERT_TRUE(reader
                  ->ReplayUpdates(
                      [&](const Slice& key, const Slice& value, ValueType type) {
                        replayed.emplace_back(key.ToString(), value.ToString(), type);
                      },
                      [&](uint64_t txn_id, const std::vector<uint32_t>& shards, uint32_t count,
                          const Slice&) {
                        seen_txns.push_back(txn_id);
                        seen_participants.push_back(shards);
                        EXPECT_GT(count, 0u);
                        return txn_id == 7;  // only txn 7 has a marker
                      })
                  .ok());
  ASSERT_EQ(seen_txns, (std::vector<uint64_t>{7, 9}));
  ASSERT_EQ(seen_participants[0], (std::vector<uint32_t>{1, 3}));
  // Txn 7's two entries replay in order; txn 9 is skipped whole; the
  // trailing batch record still replays.
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(std::get<0>(replayed[0]), "ka");
  EXPECT_EQ(std::get<1>(replayed[0]), "va");
  EXPECT_EQ(std::get<0>(replayed[1]), "kb");
  EXPECT_EQ(std::get<2>(replayed[1]), ValueType::kTombstone);
  EXPECT_EQ(std::get<0>(replayed[2]), "after");
}

// Without a prepare callback the replayer must skip prepares entirely
// (a reader that predates 2PC state never resurrects uncommitted data).
TEST_F(WalTest, PrepareRecordsSkippedWithoutCallback) {
  WriteBatch batch;
  batch.Put(Slice("k"), Slice("v"));
  std::string participants;
  PutVarint32(&participants, 1);
  PutVarint32(&participants, 0);
  auto writer = NewWriter("/wal");
  ASSERT_TRUE(writer->Add(WalRecord::Prepare(3, Slice(participants), 1, Slice(batch.rep()))).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("/wal");
  int count = 0;
  ASSERT_TRUE(
      reader->ReplayUpdates([&](const Slice&, const Slice&, ValueType) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(WalTest, ManyRecords) {
  auto writer = NewWriter("/wal");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(AddPut(writer.get(), Slice("key" + std::to_string(i)),
                       Slice("value" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto reader = NewReader("/wal");
  int i = 0;
  ASSERT_TRUE(reader
                  ->ReplayUpdates([&](const Slice& k, const Slice& v, ValueType) {
                    ASSERT_EQ(k.ToString(), "key" + std::to_string(i));
                    ASSERT_EQ(v.ToString(), "value" + std::to_string(i));
                    ++i;
                  })
                  .ok());
  EXPECT_EQ(i, 5000);
}

// Replay knows only the batch (2) and prepare (3) tags. A well-framed
// record with any other tag — including 0, the retired single-update
// record — is Corruption, not silently decoded as an update.
TEST_F(WalTest, UnknownRecordTagIsCorruption) {
  for (const uint8_t tag : {uint8_t{0}, uint8_t{7}}) {
    SCOPED_TRACE("tag " + std::to_string(tag));
    const std::string name = "/wal-tag" + std::to_string(tag);
    auto writer = NewWriter(name);
    ASSERT_TRUE(AddPut(writer.get(), Slice("before"), Slice("v")).ok());
    // tag | klen | key | vlen | value: the retired single-update layout.
    std::string payload(1, static_cast<char>(tag));
    PutLengthPrefixedSlice(&payload, Slice("k"));
    PutLengthPrefixedSlice(&payload, Slice("v"));
    ASSERT_TRUE(writer->AddRecord(Slice(payload)).ok());
    ASSERT_TRUE(writer->Close().ok());

    auto reader = NewReader(name);
    std::vector<std::string> replayed;
    Status s = reader->ReplayUpdates(
        [&](const Slice& key, const Slice&, ValueType) { replayed.push_back(key.ToString()); });
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(replayed, (std::vector<std::string>{"before"}));
  }
}

// The on-disk bytes of one batch record, one prepare and one txn commit
// marker, pinned so the framing cannot drift: a log written by one build
// must replay under the next.
TEST_F(WalTest, GoldenRecordBytes) {
  WriteBatch batch;
  batch.Put(Slice("k1"), Slice("v1"));
  batch.Delete(Slice("k2"));
  WriteBatch one;
  one.Put(Slice("key"), Slice("value"));
  std::string participants;  // shard set {0, 3}
  PutVarint32(&participants, 2);
  PutVarint32(&participants, 0);
  PutVarint32(&participants, 3);

  struct Golden {
    WalRecord record;
    std::vector<uint8_t> bytes;
  };
  const Golden cases[] = {
      {WalRecord::Batch(static_cast<uint32_t>(batch.Count()), Slice(batch.rep())),
       {0xad, 0x6b, 0x35, 0x4f, 0x0e, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00,
        0x02, 0x6b, 0x31, 0x02, 0x76, 0x31, 0x01, 0x02, 0x6b, 0x32, 0x00}},
      {WalRecord::Prepare(300, Slice(participants), static_cast<uint32_t>(one.Count()),
                          Slice(one.rep())),
       {0x6f, 0xf6, 0x56, 0xeb, 0x12, 0x00, 0x00, 0x00, 0x03, 0xac, 0x02, 0x02, 0x00,
        0x03, 0x01, 0x00, 0x03, 0x6b, 0x65, 0x79, 0x05, 0x76, 0x61, 0x6c, 0x75, 0x65}},
      {WalRecord::TxnCommit(300),
       {0x69, 0xd2, 0x5b, 0x97, 0x03, 0x00, 0x00, 0x00, 0x01, 0xac, 0x02}},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const std::string name = "/golden" + std::to_string(i);
    auto writer = NewWriter(name);
    ASSERT_TRUE(writer->Add(cases[i].record).ok());
    ASSERT_TRUE(writer->Close().ok());
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, name, &contents).ok());
    EXPECT_EQ(std::vector<uint8_t>(contents.begin(), contents.end()), cases[i].bytes);
  }
}

}  // namespace
}  // namespace flodb
