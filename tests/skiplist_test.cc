// Single-threaded semantics of ConcurrentSkipList: insert, in-place
// update with the max-seq rule, lookups, iteration, seeks.

#include "flodb/mem/skiplist.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"

namespace flodb {
namespace {

class SkipListTest : public ::testing::Test {
 protected:
  ConcurrentArena arena_;
  ConcurrentSkipList list_{&arena_};
};

TEST_F(SkipListTest, EmptyListLookupMisses) {
  EXPECT_FALSE(list_.Get(Slice("absent"), nullptr, nullptr, nullptr));
  EXPECT_EQ(list_.Count(), 0u);
}

TEST_F(SkipListTest, InsertThenGet) {
  EXPECT_TRUE(list_.Insert(Slice("key1"), Slice("value1"), 1, ValueType::kValue));
  std::string value;
  uint64_t seq;
  ValueType type;
  ASSERT_TRUE(list_.Get(Slice("key1"), &value, &seq, &type));
  EXPECT_EQ(value, "value1");
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(type, ValueType::kValue);
  EXPECT_EQ(list_.Count(), 1u);
}

TEST_F(SkipListTest, InsertExistingKeyUpdatesInPlace) {
  list_.Insert(Slice("k"), Slice("v1"), 1, ValueType::kValue);
  EXPECT_FALSE(list_.Insert(Slice("k"), Slice("v2"), 2, ValueType::kValue));
  std::string value;
  uint64_t seq;
  ASSERT_TRUE(list_.Get(Slice("k"), &value, &seq, nullptr));
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(list_.Count(), 1u) << "in-place update must not add nodes";
}

TEST_F(SkipListTest, LowerSeqUpdateIsIgnored) {
  // The max-seq rule: a late-arriving older value (e.g. a stale drained
  // copy) must never overwrite a newer one.
  list_.Insert(Slice("k"), Slice("new"), 10, ValueType::kValue);
  list_.Insert(Slice("k"), Slice("old"), 5, ValueType::kValue);
  std::string value;
  uint64_t seq;
  ASSERT_TRUE(list_.Get(Slice("k"), &value, &seq, nullptr));
  EXPECT_EQ(value, "new");
  EXPECT_EQ(seq, 10u);
}

TEST_F(SkipListTest, TombstoneStoredAndReadable) {
  list_.Insert(Slice("k"), Slice(), 1, ValueType::kTombstone);
  ValueType type;
  ASSERT_TRUE(list_.Get(Slice("k"), nullptr, nullptr, &type));
  EXPECT_EQ(type, ValueType::kTombstone);
}

TEST_F(SkipListTest, IterationIsSorted) {
  Random64 rng(5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.Uniform(10'000);
    std::string key = EncodeKey(k);
    std::string value = "v" + std::to_string(k);
    list_.Insert(Slice(key), Slice(value), static_cast<uint64_t>(i + 1), ValueType::kValue);
    model[key] = value;
  }
  EXPECT_EQ(list_.Count(), model.size());

  ConcurrentSkipList::Iterator iter(&list_);
  auto expected = model.begin();
  for (iter.SeekToFirst(); iter.Valid(); iter.Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(iter.key().ToString(), expected->first);
    EXPECT_EQ(iter.value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

TEST_F(SkipListTest, SeekFindsFirstKeyNotLess) {
  for (uint64_t k : {10u, 20u, 30u}) {
    std::string key = EncodeKey(k);
    list_.Insert(Slice(key), Slice("v"), k, ValueType::kValue);
  }
  ConcurrentSkipList::Iterator iter(&list_);

  iter.Seek(Slice(EncodeKey(15)));
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(DecodeKey(iter.key()), 20u);

  iter.Seek(Slice(EncodeKey(20)));
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(DecodeKey(iter.key()), 20u);

  iter.Seek(Slice(EncodeKey(31)));
  EXPECT_FALSE(iter.Valid());

  iter.Seek(Slice(EncodeKey(0)));
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(DecodeKey(iter.key()), 10u);
}

TEST_F(SkipListTest, SeekOnEmptyListIsInvalid) {
  ConcurrentSkipList::Iterator iter(&list_);
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  iter.Seek(Slice("x"));
  EXPECT_FALSE(iter.Valid());
}

TEST_F(SkipListTest, IteratorSeesCellConsistently) {
  std::string key = EncodeKey(1);
  list_.Insert(Slice(key), Slice("first"), 1, ValueType::kValue);
  ConcurrentSkipList::Iterator iter(&list_);
  iter.SeekToFirst();
  ASSERT_TRUE(iter.Valid());
  // Update the node; the iterator holds the old cell until repositioned —
  // (value, seq) must stay mutually consistent.
  list_.Insert(Slice(key), Slice("second"), 2, ValueType::kValue);
  if (iter.seq() == 1) {
    EXPECT_EQ(iter.value().ToString(), "first");
  } else {
    EXPECT_EQ(iter.value().ToString(), "second");
  }
}

TEST_F(SkipListTest, ApproximateBytesGrows) {
  const size_t before = list_.ApproximateBytes();
  list_.Insert(Slice("key"), Slice(std::string(1000, 'x')), 1, ValueType::kValue);
  EXPECT_GE(list_.ApproximateBytes(), before + 1000);
}

TEST_F(SkipListTest, ManySequentialInserts) {
  for (uint64_t k = 0; k < 5000; ++k) {
    list_.Insert(Slice(EncodeKey(k)), Slice("v"), k + 1, ValueType::kValue);
  }
  EXPECT_EQ(list_.Count(), 5000u);
  std::string value;
  for (uint64_t k = 0; k < 5000; k += 97) {
    EXPECT_TRUE(list_.Get(Slice(EncodeKey(k)), &value, nullptr, nullptr));
  }
  EXPECT_FALSE(list_.Get(Slice(EncodeKey(5000)), nullptr, nullptr, nullptr));
}

TEST_F(SkipListTest, ReverseOrderInserts) {
  for (uint64_t k = 1000; k-- > 0;) {
    list_.Insert(Slice(EncodeKey(k)), Slice("v"), 1000 - k, ValueType::kValue);
  }
  EXPECT_EQ(list_.Count(), 1000u);
  ConcurrentSkipList::Iterator iter(&list_);
  iter.SeekToFirst();
  uint64_t expected = 0;
  for (; iter.Valid(); iter.Next()) {
    EXPECT_EQ(DecodeKey(iter.key()), expected++);
  }
  EXPECT_EQ(expected, 1000u);
}

TEST_F(SkipListTest, EmptyValueRoundTrips) {
  list_.Insert(Slice("k"), Slice(), 1, ValueType::kValue);
  std::string value = "sentinel";
  ASSERT_TRUE(list_.Get(Slice("k"), &value, nullptr, nullptr));
  EXPECT_TRUE(value.empty());
}

TEST_F(SkipListTest, LargeValuesSurvive) {
  const std::string big(1 << 20, 'B');
  list_.Insert(Slice("big"), Slice(big), 1, ValueType::kValue);
  std::string value;
  ASSERT_TRUE(list_.Get(Slice("big"), &value, nullptr, nullptr));
  EXPECT_EQ(value, big);
}

}  // namespace
}  // namespace flodb
