#include "flodb/disk/wal.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "flodb/common/coding.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/crc32c.h"
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

// The length field is outside the CRC. A header that declares ~4 GiB
// over a 16-byte body is a truncated tail, and replay must not size its
// buffer by the declared length.
TEST_F(WalTest, CorruptLengthDoesNotAllocateDeclaredSize) {
  std::string data(8, '\0');
  EncodeFixed32(data.data(), crc32c::Mask(0));
  EncodeFixed32(data.data() + 4, 0xFFFFFFF0u);
  data.append(16, 'x');
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/bad-length", false).ok());

  auto reader = NewReader("/bad-length");
  std::string payload;
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();
  EXPECT_LT(payload.capacity(), size_t{1} << 20);
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

// Replay knows only the batch tag (2). A well-framed record with any
// other tag but the refused prepare tag (3) — including 0, the retired
// single-update record — is Corruption, not silently decoded as an update.
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

// The on-disk bytes of one batch record, pinned so the framing cannot
// drift: a log written by one build must replay under the next.
TEST_F(WalTest, GoldenRecordBytes) {
  WriteBatch batch;
  batch.Put(Slice("k1"), Slice("v1"));
  batch.Delete(Slice("k2"));
  auto writer = NewWriter("/golden");
  ASSERT_TRUE(
      writer->Add(WalRecord::Batch(static_cast<uint32_t>(batch.Count()), Slice(batch.rep())))
          .ok());
  ASSERT_TRUE(writer->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/golden", &contents).ok());
  EXPECT_EQ(std::vector<uint8_t>(contents.begin(), contents.end()),
            (std::vector<uint8_t>{0xad, 0x6b, 0x35, 0x4f, 0x0e, 0x00, 0x00, 0x00,
                                  0x02, 0x02, 0x00, 0x02, 0x6b, 0x31, 0x02, 0x76,
                                  0x31, 0x01, 0x02, 0x6b, 0x32, 0x00}));
}

}  // namespace
}  // namespace flodb
