#include "flodb/disk/version.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/common/coding.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/crc32c.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/table_builder.h"
#include "flodb/disk/table_reader.h"

namespace flodb {
namespace {

FileMetaData MakeFile(uint64_t number, uint64_t lo, uint64_t hi, uint64_t max_seq = 1) {
  FileMetaData f;
  f.number = number;
  f.file_size = 1000;
  f.entries = 10;
  f.smallest = EncodeKey(lo);
  f.largest = EncodeKey(hi);
  f.smallest_seq = 1;
  f.largest_seq = max_seq;
  return f;
}

TEST(FileMetaDataTest, OverlapChecks) {
  FileMetaData f = MakeFile(1, 100, 200);
  EXPECT_TRUE(f.OverlapsRange(Slice(EncodeKey(150)), Slice(EncodeKey(160))));
  EXPECT_TRUE(f.OverlapsRange(Slice(EncodeKey(50)), Slice(EncodeKey(100))));
  EXPECT_TRUE(f.OverlapsRange(Slice(EncodeKey(200)), Slice(EncodeKey(300))));
  EXPECT_FALSE(f.OverlapsRange(Slice(EncodeKey(201)), Slice(EncodeKey(300))));
  EXPECT_FALSE(f.OverlapsRange(Slice(EncodeKey(0)), Slice(EncodeKey(99))));
  // Open-ended ranges.
  EXPECT_TRUE(f.OverlapsRange(Slice(), Slice(EncodeKey(300))));
  EXPECT_TRUE(f.OverlapsRange(Slice(EncodeKey(150)), Slice()));
  EXPECT_TRUE(f.OverlapsRange(Slice(), Slice()));

  EXPECT_TRUE(f.ContainsKey(Slice(EncodeKey(100))));
  EXPECT_TRUE(f.ContainsKey(Slice(EncodeKey(200))));
  EXPECT_FALSE(f.ContainsKey(Slice(EncodeKey(99))));
  EXPECT_FALSE(f.ContainsKey(Slice(EncodeKey(201))));
}

class VersionSetTest : public ::testing::Test {
 protected:
  VersionSetTest() : versions_(&env_, "/db", 7) {}

  // Writes file `number` as a one-entry table and returns its metadata
  // with an open handle, deletable as a new output's is.
  FileMetaData WriteTable(uint64_t number) {
    FileMetaData f = MakeFile(number, 0, 0);
    const std::string fname = versions_.TableFileName(number);
    std::unique_ptr<WritableFile> out;
    EXPECT_TRUE(env_.NewWritableFile(fname, &out).ok());
    TableBuilder builder(TableBuilder::Options(), out.get());
    builder.Add(Slice(f.smallest), 1, ValueType::kValue, Slice("v"));
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(out->Close().ok());
    f.file_size = builder.FileSize();
    std::unique_ptr<RandomAccessFile> in;
    EXPECT_TRUE(env_.NewRandomAccessFile(fname, &in).ok());
    std::unique_ptr<TableReader> reader;
    EXPECT_TRUE(TableReader::Open(std::move(in), f.file_size, TableReader::Options(), &reader).ok());
    f.table = std::make_shared<TableHandle>(std::move(reader), &env_, fname, /*deletable=*/true);
    return f;
  }

  MemEnv env_;
  VersionSet versions_;
};

TEST_F(VersionSetTest, FreshRecoverStartsEmpty) {
  ASSERT_TRUE(versions_.Recover().ok());
  auto v = versions_.Current();
  EXPECT_EQ(v->NumFiles(), 0);
  EXPECT_EQ(v->NumLevels(), 7);
}

TEST_F(VersionSetTest, AddAndDeleteFiles) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(1, 0, 100));
  edit.added.emplace_back(0, MakeFile(2, 50, 150));
  edit.added.emplace_back(1, MakeFile(3, 0, 60));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());

  auto v = versions_.Current();
  EXPECT_EQ(v->LevelFiles(0).size(), 2u);
  EXPECT_EQ(v->LevelFiles(1).size(), 1u);

  VersionEdit edit2;
  edit2.deleted.emplace_back(0, 1);
  ASSERT_TRUE(versions_.LogAndApply(edit2).ok());
  v = versions_.Current();
  EXPECT_EQ(v->LevelFiles(0).size(), 1u);
  EXPECT_EQ(v->LevelFiles(0)[0].number, 2u);
}

TEST_F(VersionSetTest, OldVersionsRemainValid) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(1, 0, 100));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());

  auto pinned = versions_.Current();
  VersionEdit edit2;
  edit2.deleted.emplace_back(0, 1);
  ASSERT_TRUE(versions_.LogAndApply(edit2).ok());

  ASSERT_EQ(pinned->LevelFiles(0).size(), 1u) << "pinned version must be immutable";
  EXPECT_EQ(pinned->LevelFiles(0)[0].number, 1u);
  EXPECT_TRUE(versions_.Current()->LevelFiles(0).empty());
}

// LogAndApply decides whether a table's file stays, and the table's last
// handle carries the decision out: an output never installed goes with
// its writer, and a deleted table with the last Version pinning it.
TEST_F(VersionSetTest, TableFileGoesWithItsLastHandleUnlessInstalled) {
  ASSERT_TRUE(versions_.Recover().ok());
  WriteTable(1);  // dropped at once, never installed
  EXPECT_FALSE(env_.FileExists(versions_.TableFileName(1)));

  {
    VersionEdit edit;
    edit.added.emplace_back(0, WriteTable(2));
    ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  }
  EXPECT_TRUE(env_.FileExists(versions_.TableFileName(2))) << "installed";

  auto pinned = versions_.Current();
  VersionEdit edit;
  edit.deleted.emplace_back(0, 2);
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  EXPECT_TRUE(env_.FileExists(versions_.TableFileName(2))) << "a pinned Version still names it";
  pinned.reset();
  EXPECT_FALSE(env_.FileExists(versions_.TableFileName(2)));
}

TEST_F(VersionSetTest, PersistAndRecover) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(7, 10, 20, 99));
  edit.added.emplace_back(2, MakeFile(8, 30, 40, 50));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  const uint64_t next = versions_.NewFileNumber();

  VersionSet recovered(&env_, "/db", 7);
  ASSERT_TRUE(recovered.Recover().ok());
  auto v = recovered.Current();
  ASSERT_EQ(v->LevelFiles(0).size(), 1u);
  EXPECT_EQ(v->LevelFiles(0)[0].number, 7u);
  EXPECT_EQ(v->LevelFiles(0)[0].largest_seq, 99u);
  EXPECT_EQ(v->LevelFiles(0)[0].smallest, EncodeKey(10));
  ASSERT_EQ(v->LevelFiles(2).size(), 1u);
  EXPECT_EQ(v->LevelFiles(2)[0].number, 8u);
  EXPECT_GT(recovered.NewFileNumber(), next - 1) << "file counter must not regress";
  EXPECT_EQ(recovered.MaxPersistedSeq(), 99u);
}

TEST_F(VersionSetTest, CorruptManifestRejected) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(1, 0, 10));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());

  // Corrupt the manifest in place.
  std::string current;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/CURRENT", &current).ok());
  while (!current.empty() && current.back() == '\n') {
    current.pop_back();
  }
  const std::string manifest = "/db/" + current;
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, manifest, &data).ok());
  data[5] = static_cast<char>(data[5] ^ 0xff);
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), manifest, false).ok());

  VersionSet recovered(&env_, "/db", 7);
  EXPECT_TRUE(recovered.Recover().IsCorruption());
}

TEST_F(VersionSetTest, LevelsStayKeySorted) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(1, MakeFile(3, 200, 300));
  edit.added.emplace_back(1, MakeFile(4, 0, 100));
  edit.added.emplace_back(1, MakeFile(5, 400, 500));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  auto v = versions_.Current();
  const auto& files = v->LevelFiles(1);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].number, 4u);
  EXPECT_EQ(files[1].number, 3u);
  EXPECT_EQ(files[2].number, 5u);
}

// A Get probes L0 in this order and takes the first hit, so the order is
// by largest sequence number, whatever order the files were numbered in.
TEST_F(VersionSetTest, LevelZeroKeptNewestFirst) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(1, 0, 100, 20));
  edit.added.emplace_back(0, MakeFile(2, 0, 100, 30));
  edit.added.emplace_back(0, MakeFile(3, 0, 100, 10));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  const VersionSet::ReadSection section(versions_);
  const auto& files = section.version().LevelFiles(0);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].number, 2u);
  EXPECT_EQ(files[1].number, 1u);
  EXPECT_EQ(files[2].number, 3u);
}

// Readers in ReadSections race LogAndApply: each edit replaces the one L0
// file with the next, so every Version a reader reaches names exactly one
// file, never older than the last one it saw. LogAndApply frees the
// replaced Version only after a grace period; without it, a reader would
// touch freed memory (ASan) or race the free (TSan).
TEST_F(VersionSetTest, ReadSectionsRaceLogAndApply) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit first;
  first.added.emplace_back(0, MakeFile(1, 0, 100, 1));
  ASSERT_TRUE(versions_.LogAndApply(first).ok());

  constexpr uint64_t kEdits = 1000;
  std::atomic<bool> done{false};
  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      do {
        const VersionSet::ReadSection section(versions_);
        const auto& files = section.version().LevelFiles(0);
        ASSERT_EQ(files.size(), 1u);
        ASSERT_GE(files[0].number, last);
        ASSERT_EQ(files[0].smallest, EncodeKey(0));
        if (last == 0) {
          ready.fetch_add(1, std::memory_order_release);
        }
        last = files[0].number;
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (ready.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();  // every reader is in its loop before the edits start
  }
  for (uint64_t n = 2; n <= kEdits; ++n) {
    VersionEdit edit;
    edit.deleted.emplace_back(0, n - 1);
    edit.added.emplace_back(0, MakeFile(n, 0, 100, n));
    ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }
  const VersionSet::ReadSection section(versions_);
  ASSERT_EQ(section.version().LevelFiles(0).size(), 1u);
  EXPECT_EQ(section.version().LevelFiles(0)[0].number, kEdits);
}

TEST_F(VersionSetTest, OverlappingFilesQuery) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(1, MakeFile(1, 0, 100));
  edit.added.emplace_back(1, MakeFile(2, 101, 200));
  edit.added.emplace_back(1, MakeFile(3, 201, 300));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  auto v = versions_.Current();
  EXPECT_EQ(v->OverlappingFiles(1, Slice(EncodeKey(150)), Slice(EncodeKey(250))).size(), 2u);
  EXPECT_EQ(v->OverlappingFiles(1, Slice(EncodeKey(301)), Slice()).size(), 0u);
  EXPECT_EQ(v->OverlappingFiles(1, Slice(), Slice()).size(), 3u);
}

TEST_F(VersionSetTest, IsBottommostForRange) {
  ASSERT_TRUE(versions_.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(2, MakeFile(1, 100, 200));
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  auto v = versions_.Current();
  EXPECT_FALSE(v->IsBottommostForRange(1, Slice(EncodeKey(150)), Slice(EncodeKey(160))));
  EXPECT_TRUE(v->IsBottommostForRange(2, Slice(EncodeKey(150)), Slice(EncodeKey(160))));
  EXPECT_TRUE(v->IsBottommostForRange(1, Slice(EncodeKey(300)), Slice(EncodeKey(400))));
}

// Older builds could end a snapshot with a value-log section (value
// separation). Its values live in files this build cannot read, so a
// well-formed snapshot carrying one is refused, never opened with those
// values missing.
TEST_F(VersionSetTest, ValueLogManifestSectionRefused) {
  std::string data;
  PutFixed64(&data, 9);  // next_file_number
  PutFixed32(&data, 7);  // num_levels
  for (int level = 0; level < 7; ++level) {
    PutFixed32(&data, 0);  // no tables
  }
  PutFixed32(&data, 1);  // one value-log file ...
  PutFixed64(&data, 7);  // ... number 7
  PutFixed64(&data, 0);  // ... with no garbage
  PutFixed32(&data, 0);  // no table references it
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/db/MANIFEST-000001", true).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, Slice("MANIFEST-000001\n"), "/db/CURRENT", true).ok());

  const Status s = versions_.Recover();
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  EXPECT_NE(s.ToString().find("value separation"), std::string::npos) << s.ToString();
}

TEST_F(VersionSetTest, LogNumberPersistsAcrossRecover) {
  ASSERT_TRUE(versions_.Recover().ok());
  EXPECT_EQ(versions_.LogNumber(), 0u);
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(1, 100, 200));
  edit.log_number = 5;
  ASSERT_TRUE(versions_.LogAndApply(edit).ok());
  VersionEdit keep;  // log_number 0 leaves it as it is
  keep.added.emplace_back(0, MakeFile(2, 300, 400));
  ASSERT_TRUE(versions_.LogAndApply(keep).ok());
  EXPECT_EQ(versions_.LogNumber(), 5u);

  VersionSet reopened(&env_, "/db", 7);
  ASSERT_TRUE(reopened.Recover().ok());
  EXPECT_EQ(reopened.LogNumber(), 5u);
  EXPECT_EQ(reopened.Current()->NumFiles(), 2);
}

// A snapshot written before the log number was recorded ends at its
// levels section; it opens with log number 0, so every log replays.
TEST_F(VersionSetTest, ManifestWithoutLogNumberReadsZero) {
  std::string data;
  PutFixed64(&data, 9);  // next_file_number
  PutFixed32(&data, 7);  // num_levels
  for (int level = 0; level < 7; ++level) {
    PutFixed32(&data, 0);  // no tables
  }
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  ASSERT_TRUE(WriteStringToFile(&env_, Slice(data), "/db/MANIFEST-000001", true).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, Slice("MANIFEST-000001\n"), "/db/CURRENT", true).ok());

  ASSERT_TRUE(versions_.Recover().ok());
  EXPECT_EQ(versions_.LogNumber(), 0u);
  EXPECT_EQ(versions_.NewFileNumber(), 9u);
}

// The MANIFEST snapshot a default store writes after one flush, pinned so
// the format cannot drift: a directory written by one build must open
// under the next. The store runs without a WAL, so the trailing
// log-number section carries 0.
TEST(ManifestGoldenTest, DefaultStoreSnapshotBytes) {
  MemEnv env;
  FloDbOptions options;
  options.disk.env = &env;
  options.disk.path = "/db";
  {
    std::unique_ptr<FloDB> db;
    ASSERT_TRUE(FloDB::Open(options, &db).ok());
    for (uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(db->Put(Slice(EncodeKey(i)), Slice("value" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
  }
  std::string current;
  ASSERT_TRUE(ReadFileToString(&env, "/db/CURRENT", &current).ok());
  EXPECT_EQ(current, "MANIFEST-000002\n");
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, "/db/MANIFEST-000002", &contents).ok());
  const std::vector<uint8_t> golden = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x8c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x4c, 0x4f, 0x47, 0x4e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x15, 0xe3, 0xf6, 0xbf};
  EXPECT_EQ(std::vector<uint8_t>(contents.begin(), contents.end()), golden);
}

}  // namespace
}  // namespace flodb
