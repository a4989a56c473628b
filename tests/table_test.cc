// SSTable builder/reader: round-trips, block boundaries, seeks, bloom
// integration, corruption detection.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/table_builder.h"
#include "flodb/disk/table_format.h"
#include "flodb/disk/table_reader.h"

namespace flodb {
namespace {

class TableTest : public ::testing::Test {
 protected:
  // Builds a table from model entries (key -> (value, seq, type)).
  void Build(const std::map<std::string, std::tuple<std::string, uint64_t, ValueType>>& entries,
             size_t block_bytes = 4096) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile("/table", &file).ok());
    TableBuilder::Options options;
    options.block_bytes = block_bytes;
    TableBuilder builder(options, file.get());
    for (const auto& [key, rest] : entries) {
      const auto& [value, seq, type] = rest;
      builder.Add(Slice(key), seq, type, Slice(value));
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    file_size_ = builder.FileSize();
    entry_count_ = builder.NumEntries();
  }

  std::unique_ptr<TableReader> OpenTable(const std::string& name = "/table") {
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env_.NewRandomAccessFile(name, &file).ok());
    uint64_t size;
    EXPECT_TRUE(env_.GetFileSize(name, &size).ok());
    std::unique_ptr<TableReader> reader;
    EXPECT_TRUE(TableReader::Open(std::move(file), size, &reader).ok());
    return reader;
  }

  MemEnv env_;
  uint64_t file_size_ = 0;
  uint64_t entry_count_ = 0;
};

std::map<std::string, std::tuple<std::string, uint64_t, ValueType>> MakeEntries(int n) {
  std::map<std::string, std::tuple<std::string, uint64_t, ValueType>> entries;
  for (int i = 0; i < n; ++i) {
    const uint64_t k = static_cast<uint64_t>(i) * 3;
    entries[EncodeKey(k)] = {"value" + std::to_string(k), static_cast<uint64_t>(i + 1),
                             ValueType::kValue};
  }
  return entries;
}

TEST_F(TableTest, RoundTripSmall) {
  auto entries = MakeEntries(10);
  Build(entries);
  auto reader = OpenTable();
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->NumEntries(), 10u);

  for (const auto& [key, rest] : entries) {
    std::string value;
    uint64_t seq;
    ValueType type;
    ASSERT_TRUE(reader->Get(Slice(key), &value, &seq, &type).ok()) << DecodeKey(Slice(key));
    EXPECT_EQ(value, std::get<0>(rest));
    EXPECT_EQ(seq, std::get<1>(rest));
  }
}

TEST_F(TableTest, MissingKeysReturnNotFound) {
  Build(MakeEntries(100));
  auto reader = OpenTable();
  // Keys between the stride, below smallest, above largest.
  EXPECT_TRUE(reader->Get(Slice(EncodeKey(1)), nullptr, nullptr, nullptr).IsNotFound());
  EXPECT_TRUE(reader->Get(Slice(EncodeKey(1'000'000)), nullptr, nullptr, nullptr).IsNotFound());
}

TEST_F(TableTest, MultiBlockTable) {
  auto entries = MakeEntries(5000);
  Build(entries, /*block_bytes=*/512);  // forces many blocks
  auto reader = OpenTable();
  EXPECT_EQ(reader->NumEntries(), 5000u);
  std::string value;
  for (int i = 0; i < 5000; i += 113) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i) * 3);
    ASSERT_TRUE(reader->Get(Slice(key), &value, nullptr, nullptr).ok()) << i;
    EXPECT_EQ(value, std::get<0>(entries[key]));
  }
}

TEST_F(TableTest, IteratorFullWalk) {
  auto entries = MakeEntries(2000);
  Build(entries, 1024);
  auto reader = OpenTable();
  auto iter = reader->NewIterator();
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(iter->key().ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), std::get<0>(expected->second));
    EXPECT_EQ(iter->seq(), std::get<1>(expected->second));
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, IteratorSeek) {
  Build(MakeEntries(1000), 512);
  auto reader = OpenTable();
  auto iter = reader->NewIterator();

  // Exact hit.
  iter->Seek(Slice(EncodeKey(300)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(DecodeKey(iter->key()), 300u);

  // Between keys: next greater (stride 3 => 301 -> 303).
  iter->Seek(Slice(EncodeKey(301)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(DecodeKey(iter->key()), 303u);

  // Before first.
  iter->Seek(Slice(EncodeKey(0)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(DecodeKey(iter->key()), 0u);

  // After last.
  iter->Seek(Slice(EncodeKey(999'999)));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableTest, TombstonesRoundTrip) {
  std::map<std::string, std::tuple<std::string, uint64_t, ValueType>> entries;
  entries[EncodeKey(1)] = {"", 1, ValueType::kTombstone};
  entries[EncodeKey(2)] = {"live", 2, ValueType::kValue};
  Build(entries);
  auto reader = OpenTable();
  ValueType type;
  ASSERT_TRUE(reader->Get(Slice(EncodeKey(1)), nullptr, nullptr, &type).ok());
  EXPECT_EQ(type, ValueType::kTombstone);
  ASSERT_TRUE(reader->Get(Slice(EncodeKey(2)), nullptr, nullptr, &type).ok());
  EXPECT_EQ(type, ValueType::kValue);
}

TEST_F(TableTest, BuilderTracksMetadata) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/t2", &file).ok());
  TableBuilder builder(TableBuilder::Options{}, file.get());
  builder.Add(Slice(EncodeKey(10)), 5, ValueType::kValue, Slice("a"));
  builder.Add(Slice(EncodeKey(20)), 9, ValueType::kValue, Slice("b"));
  builder.Add(Slice(EncodeKey(30)), 2, ValueType::kValue, Slice("c"));
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.smallest_key().ToString(), EncodeKey(10));
  EXPECT_EQ(builder.largest_key().ToString(), EncodeKey(30));
  EXPECT_EQ(builder.smallest_seq(), 2u);
  EXPECT_EQ(builder.largest_seq(), 9u);
  EXPECT_EQ(builder.NumEntries(), 3u);
  EXPECT_GT(builder.FileSize(), 0u);
}

TEST_F(TableTest, CorruptDataBlockDetected) {
  Build(MakeEntries(100));
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "/table", &data).ok());
  data[10] = static_cast<char>(data[10] ^ 0x1);  // flip a bit in block 0
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/corrupt", false).ok());

  auto reader = OpenTable("/corrupt");
  ASSERT_NE(reader, nullptr);  // footer/index intact
  Status s = reader->Get(Slice(EncodeKey(0)), nullptr, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(TableTest, BadMagicRejected) {
  Build(MakeEntries(10));
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "/table", &data).ok());
  data[data.size() - 1] = static_cast<char>(data[data.size() - 1] ^ 0xff);
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/badmagic", false).ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_.NewRandomAccessFile("/badmagic", &file).ok());
  std::unique_ptr<TableReader> reader;
  Status s = TableReader::Open(std::move(file), data.size(), &reader);
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(TableTest, TooSmallFileRejected) {
  ASSERT_TRUE(WriteStringToFile(&env_, Slice("tiny"), "/tiny", false).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_.NewRandomAccessFile("/tiny", &file).ok());
  std::unique_ptr<TableReader> reader;
  EXPECT_TRUE(TableReader::Open(std::move(file), 4, &reader).IsCorruption());
}

TEST_F(TableTest, EmptyValueAndLargeValue) {
  std::map<std::string, std::tuple<std::string, uint64_t, ValueType>> entries;
  entries[EncodeKey(1)] = {"", 1, ValueType::kValue};
  entries[EncodeKey(2)] = {std::string(100'000, 'L'), 2, ValueType::kValue};
  Build(entries);
  auto reader = OpenTable();
  std::string value;
  ASSERT_TRUE(reader->Get(Slice(EncodeKey(1)), &value, nullptr, nullptr).ok());
  EXPECT_TRUE(value.empty());
  ASSERT_TRUE(reader->Get(Slice(EncodeKey(2)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value.size(), 100'000u);
}

// Parameterized block-size sweep: the format must round-trip at any block
// granularity.
class TableBlockSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TableBlockSweep, RoundTrip) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/t", &file).ok());
  TableBuilder::Options options;
  options.block_bytes = GetParam();
  TableBuilder builder(options, file.get());
  constexpr int kN = 777;
  for (int i = 0; i < kN; ++i) {
    builder.Add(Slice(EncodeKey(static_cast<uint64_t>(i))), static_cast<uint64_t>(i + 1),
                ValueType::kValue, Slice("v" + std::to_string(i)));
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());

  std::unique_ptr<RandomAccessFile> raf;
  ASSERT_TRUE(env.NewRandomAccessFile("/t", &raf).ok());
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(std::move(raf), builder.FileSize(), &reader).ok());
  std::string value;
  for (int i = 0; i < kN; i += 31) {
    ASSERT_TRUE(
        reader->Get(Slice(EncodeKey(static_cast<uint64_t>(i))), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TableBlockSweep,
                         ::testing::Values(64, 256, 1024, 4096, 65536));

// An entry whose type byte is neither kValue nor kTombstone is corruption:
// Get and iteration both fail instead of handing back a value of unknown
// meaning. (4 was the value-pointer type of older, value-separating
// builds.)
TEST_F(TableTest, UnknownValueTypeIsCorruption) {
  Build({{EncodeKey(1), {"a", 1, ValueType::kValue}},
         {EncodeKey(2), {"pointer", 2, static_cast<ValueType>(4)}},
         {EncodeKey(3), {"c", 3, ValueType::kValue}}});
  auto reader = OpenTable();
  ASSERT_NE(reader, nullptr);
  std::string value;
  EXPECT_TRUE(reader->Get(Slice(EncodeKey(2)), &value, nullptr, nullptr).IsCorruption());

  auto iter = reader->NewIterator();
  size_t seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ++seen;
  }
  EXPECT_EQ(seen, 1u) << "iteration stops at the unknown entry";
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

// The bytes of one small table, pinned so the format cannot drift: a
// table written by one build must read under the next.
TEST_F(TableTest, GoldenTableBytes) {
  Build({{"k1", {"v1", 1, ValueType::kValue}},
         {"k2", {"", 2, ValueType::kTombstone}},
         {"k3", {"value3", 3, ValueType::kValue}}});
  const std::vector<uint8_t> golden = {
      0x02, 0x6b, 0x31, 0x01, 0x00, 0x02, 0x76, 0x31, 0x02, 0x6b, 0x32, 0x02,
      0x01, 0x00, 0x02, 0x6b, 0x33, 0x03, 0x00, 0x06, 0x76, 0x61, 0x6c, 0x75,
      0x65, 0x33, 0x35, 0xcc, 0xbd, 0xd8, 0xc8, 0xca, 0x08, 0x38, 0x01, 0x00,
      0x86, 0x80, 0x06, 0x02, 0x6b, 0x33, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x1a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x27, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0xed, 0x5e, 0x1e, 0xab, 0xb7, 0x0d, 0xf1};
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/table", &contents).ok());
  EXPECT_EQ(std::vector<uint8_t>(contents.begin(), contents.end()), golden);
}

}  // namespace
}  // namespace flodb
