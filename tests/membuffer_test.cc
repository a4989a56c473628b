// MemBuffer tests: CLHT-style add/get/update semantics, bucket-full
// rejection (the paper's spill-to-Memtable trigger), partitioning, and
// the mark/collect/remove drain protocol including the concurrent-update
// version check.

#include "flodb/mem/membuffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"

namespace flodb {
namespace {

MemBuffer::Options SmallOptions() {
  MemBuffer::Options options;
  options.capacity_bytes = 256 << 10;
  options.partition_bits = 3;
  options.avg_entry_bytes_hint = 48;
  return options;
}

TEST(MemBufferTest, AddThenGet) {
  MemBuffer buffer(SmallOptions());
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice("v1"), ValueType::kValue),
            MemBuffer::AddResult::kAdded);
  std::string value;
  ValueType type;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), &value, &type));
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(type, ValueType::kValue);
  EXPECT_EQ(buffer.LiveEntries(), 1u);
}

TEST(MemBufferTest, MissingKeyGetFails) {
  MemBuffer buffer(SmallOptions());
  EXPECT_FALSE(buffer.Get(Slice(EncodeKey(404)), nullptr, nullptr));
}

TEST(MemBufferTest, UpdateInPlaceSameSize) {
  MemBuffer buffer(SmallOptions());
  buffer.Add(Slice(EncodeKey(1)), Slice("aaaa"), ValueType::kValue);
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice("bbbb"), ValueType::kValue),
            MemBuffer::AddResult::kUpdated);
  std::string value;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), &value, nullptr));
  EXPECT_EQ(value, "bbbb");
  EXPECT_EQ(buffer.LiveEntries(), 1u) << "update must not duplicate the entry";
}

TEST(MemBufferTest, UpdateChangingSize) {
  MemBuffer buffer(SmallOptions());
  buffer.Add(Slice(EncodeKey(1)), Slice("short"), ValueType::kValue);
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice(std::string(100, 'x')), ValueType::kValue),
            MemBuffer::AddResult::kUpdated);
  std::string value;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), &value, nullptr));
  EXPECT_EQ(value, std::string(100, 'x'));
}

TEST(MemBufferTest, TombstonesAreStored) {
  MemBuffer buffer(SmallOptions());
  buffer.Add(Slice(EncodeKey(1)), Slice(), ValueType::kTombstone);
  ValueType type;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), nullptr, &type));
  EXPECT_EQ(type, ValueType::kTombstone);
}

TEST(MemBufferTest, RepeatedUpdatesToOneKeyNeverFill) {
  // The in-place-update property (§3.2): hammering one key must not
  // consume capacity.
  MemBuffer buffer(SmallOptions());
  for (int i = 0; i < 100'000; ++i) {
    const MemBuffer::AddResult result =
        buffer.Add(Slice(EncodeKey(42)), Slice("valu" + std::to_string(i % 10)),
                   ValueType::kValue);
    ASSERT_NE(result, MemBuffer::AddResult::kFull) << i;
  }
  EXPECT_EQ(buffer.LiveEntries(), 1u);
}

TEST(MemBufferTest, BucketFullReturnsKFull) {
  // With > slots-per-bucket keys forced into one bucket, the overflowing
  // add must be rejected (spill to Memtable). Find colliding keys by
  // brute force: same partition + bucket.
  MemBuffer::Options options = SmallOptions();
  options.capacity_bytes = 1 << 20;
  MemBuffer buffer(options);

  int added = 0;
  bool saw_full = false;
  // Keys in a single partition (top bits fixed) eventually collide.
  for (uint64_t i = 0; i < 100'000; ++i) {
    const MemBuffer::AddResult result =
        buffer.Add(Slice(EncodeKey(i)), Slice("v"), ValueType::kValue);
    if (result == MemBuffer::AddResult::kFull) {
      saw_full = true;
      break;
    }
    ++added;
  }
  EXPECT_TRUE(saw_full) << "bounded buckets must eventually reject";
  EXPECT_GT(added, 0);
}

TEST(MemBufferTest, CapacityLimitRejects) {
  MemBuffer::Options options;
  options.capacity_bytes = 4096;  // tiny
  options.partition_bits = 1;
  MemBuffer buffer(options);
  bool saw_full = false;
  for (uint64_t i = 0; i < 10'000; ++i) {
    if (buffer.Add(Slice(EncodeKey(i)), Slice(std::string(64, 'v')), ValueType::kValue) ==
        MemBuffer::AddResult::kFull) {
      saw_full = true;
      break;
    }
  }
  EXPECT_TRUE(saw_full);
  EXPECT_LE(buffer.LiveBytes(), 2 * options.capacity_bytes);
}

TEST(MemBufferTest, ExistingKeyUpdatesNeverRejectedAtCapacity) {
  // Regression: rejecting an update of a buffered key would let the newer
  // value spill to the Memtable with an older sequence number than the
  // stale buffered copy gets at drain time (lost update). Existing keys
  // must update in place even when the buffer is at capacity.
  MemBuffer::Options options;
  options.capacity_bytes = 2048;
  options.partition_bits = 1;
  MemBuffer buffer(options);
  ASSERT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice(std::string(64, 'a')), ValueType::kValue),
            MemBuffer::AddResult::kAdded);
  // Fill past capacity with other keys (some rejections are bucket-local;
  // keep going until the byte budget itself is exhausted).
  for (uint64_t i = 2; i < 10'000 && buffer.LiveBytes() < buffer.CapacityBytes(); ++i) {
    buffer.Add(Slice(EncodeKey(i * 0x0123456789abULL)), Slice(std::string(64, 'f')),
               ValueType::kValue);
  }
  ASSERT_GE(buffer.LiveBytes(), buffer.CapacityBytes());
  // New keys are rejected now...
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(999'999)), Slice("x"), ValueType::kValue),
            MemBuffer::AddResult::kFull);
  // ...but the update of an existing key must succeed in place.
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice(std::string(64, 'B')), ValueType::kValue),
            MemBuffer::AddResult::kUpdated);
  std::string value;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), &value, nullptr));
  EXPECT_EQ(value, std::string(64, 'B'));
}

TEST(MemBufferTest, CollectAndMarkThenFinishRemoves) {
  MemBuffer buffer(SmallOptions());
  for (uint64_t k = 0; k < 100; ++k) {
    buffer.Add(Slice(EncodeKey(k)), Slice("v"), ValueType::kValue);
  }
  ASSERT_EQ(buffer.LiveEntries(), 100u);

  std::vector<DrainedEntry> batch;
  size_t total = 0;
  for (uint64_t round = 0; round < 2 * buffer.NumPartitions() && total < 100; ++round) {
    batch.clear();
    const uint64_t partition = buffer.ClaimPartition();
    total += buffer.CollectAndMark(partition, 1000, &batch);
    buffer.FinishDrain(batch);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(buffer.LiveEntries(), 0u);
  EXPECT_FALSE(buffer.Get(Slice(EncodeKey(1)), nullptr, nullptr));
}

TEST(MemBufferTest, MarkedEntriesAreNotRecollected) {
  MemBuffer buffer(SmallOptions());
  buffer.Add(Slice(EncodeKey(1)), Slice("v"), ValueType::kValue);

  std::vector<DrainedEntry> first, second;
  // Find the partition holding key 1 by trying them all.
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    buffer.CollectAndMark(p, 10, &first);
  }
  ASSERT_EQ(first.size(), 1u);
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    buffer.CollectAndMark(p, 10, &second);
  }
  EXPECT_TRUE(second.empty()) << "marked entry must not be drained twice";
  buffer.FinishDrain(first);
  EXPECT_EQ(buffer.LiveEntries(), 0u);
}

TEST(MemBufferTest, ConcurrentUpdateDuringDrainSurvives) {
  // The version-check rule: an entry updated between mark and remove must
  // STAY in the buffer (with the new value) — the drained copy is stale.
  MemBuffer buffer(SmallOptions());
  buffer.Add(Slice(EncodeKey(1)), Slice("old!"), ValueType::kValue);

  std::vector<DrainedEntry> batch;
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    buffer.CollectAndMark(p, 10, &batch);
  }
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].value, "old!");

  // Concurrent writer updates the marked slot.
  EXPECT_EQ(buffer.Add(Slice(EncodeKey(1)), Slice("new!"), ValueType::kValue),
            MemBuffer::AddResult::kUpdated);

  buffer.FinishDrain(batch);
  std::string value;
  ASSERT_TRUE(buffer.Get(Slice(EncodeKey(1)), &value, nullptr))
      << "updated entry must survive the drain removal";
  EXPECT_EQ(value, "new!");
  EXPECT_EQ(buffer.LiveEntries(), 1u);

  // The survivor is drainable again afterwards.
  std::vector<DrainedEntry> batch2;
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    buffer.CollectAndMark(p, 10, &batch2);
  }
  ASSERT_EQ(batch2.size(), 1u);
  EXPECT_EQ(batch2[0].value, "new!");
  buffer.FinishDrain(batch2);
  EXPECT_EQ(buffer.LiveEntries(), 0u);
}

TEST(MemBufferTest, FullDrainProtocol) {
  MemBuffer buffer(SmallOptions());
  // Small numeric keys cluster into partition 0 (top-bits partitioning),
  // so some bucket-full rejections are expected — count what landed.
  size_t accepted = 0;
  for (uint64_t k = 0; k < 500; ++k) {
    if (buffer.Add(Slice(EncodeKey(k * 1000)), Slice("v" + std::to_string(k)),
                   ValueType::kValue) != MemBuffer::AddResult::kFull) {
      ++accepted;
    }
  }
  ASSERT_GT(accepted, 250u);
  std::set<std::string> collected;
  uint64_t begin, end;
  while (buffer.ClaimBucketRange(16, &begin, &end)) {
    std::vector<DrainedEntry> chunk;
    buffer.CollectRange(begin, end, &chunk);
    for (const DrainedEntry& e : chunk) {
      EXPECT_TRUE(collected.insert(e.key).second) << "duplicate in full drain";
    }
    buffer.MarkBucketsDone(end - begin);
  }
  EXPECT_TRUE(buffer.FullyDrained());
  EXPECT_EQ(collected.size(), accepted);
}

TEST(MemBufferTest, FullDrainWithParallelHelpers) {
  MemBuffer buffer(SmallOptions());
  constexpr uint64_t kMaxEntries = 2000;
  uint64_t kEntries = 0;
  for (uint64_t k = 0; k < kMaxEntries; ++k) {
    if (buffer.Add(Slice(EncodeKey(k * 7)), Slice("v"), ValueType::kValue) !=
        MemBuffer::AddResult::kFull) {
      ++kEntries;
    }
  }
  ASSERT_GT(kEntries, kMaxEntries / 2);
  std::atomic<uint64_t> collected{0};
  std::vector<std::thread> helpers;
  for (int t = 0; t < 4; ++t) {
    helpers.emplace_back([&] {
      uint64_t begin, end;
      while (buffer.ClaimBucketRange(8, &begin, &end)) {
        std::vector<DrainedEntry> chunk;
        buffer.CollectRange(begin, end, &chunk);
        collected.fetch_add(chunk.size());
        buffer.MarkBucketsDone(end - begin);
      }
    });
  }
  for (auto& t : helpers) {
    t.join();
  }
  EXPECT_TRUE(buffer.FullyDrained());
  EXPECT_EQ(collected.load(), kEntries);
}

TEST(MemBufferTest, PartitionOfKeyIsStable) {
  MemBuffer buffer(SmallOptions());
  // Same key must always land in the same partition/bucket: add + drain
  // by partition must find it exactly once.
  buffer.Add(Slice(EncodeKey(0x123456789abcdef0)), Slice("v"), ValueType::kValue);
  size_t found = 0;
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    std::vector<DrainedEntry> batch;
    buffer.CollectAndMark(p, 10, &batch);
    found += batch.size();
    buffer.FinishDrain(batch);
  }
  EXPECT_EQ(found, 1u);
}

TEST(MemBufferTest, PartitionsCoverContiguousKeyRanges) {
  // Keys with the same top `l` bits go to the same partition — verified
  // indirectly: draining one partition yields keys from one contiguous
  // numeric range.
  MemBuffer::Options options = SmallOptions();
  options.partition_bits = 2;  // 4 partitions = 4 quarters of key space
  MemBuffer buffer(options);
  const uint64_t quarter = uint64_t{1} << 62;
  for (uint64_t p = 0; p < 4; ++p) {
    for (uint64_t i = 0; i < 50; ++i) {
      buffer.Add(Slice(EncodeKey(p * quarter + i * 1000)), Slice("v"), ValueType::kValue);
    }
  }
  for (uint64_t p = 0; p < 4; ++p) {
    std::vector<DrainedEntry> batch;
    buffer.CollectAndMark(p, 1000, &batch);
    EXPECT_EQ(batch.size(), 50u);
    for (const DrainedEntry& e : batch) {
      EXPECT_EQ(DecodeKey(Slice(e.key)) >> 62, p);
    }
    buffer.FinishDrain(batch);
  }
}

TEST(MemBufferTest, ConcurrentAddersAndDrainerConvergeToEmpty) {
  MemBuffer buffer(SmallOptions());
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> added{0}, drained{0}, rejected{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      KeyBuf buf;
      Random64 rng(static_cast<uint64_t>(t) + 100);
      for (int i = 0; i < 20'000; ++i) {
        const MemBuffer::AddResult result =
            buffer.Add(buf.Set(rng.Uniform(100'000)), Slice("w"), ValueType::kValue);
        if (result == MemBuffer::AddResult::kAdded) {
          added.fetch_add(1);
        } else if (result == MemBuffer::AddResult::kFull) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::thread drainer([&] {
    std::vector<DrainedEntry> batch;
    while (!writers_done.load() || buffer.LiveEntries() > 0) {
      batch.clear();
      const uint64_t partition = buffer.ClaimPartition();
      if (buffer.CollectAndMark(partition, 64, &batch) > 0) {
        buffer.FinishDrain(batch);
        // Entries removed iff version unchanged; count what actually left.
      }
      drained.fetch_add(batch.size());
    }
  });
  for (auto& w : writers) {
    w.join();
  }
  writers_done.store(true);
  drainer.join();
  EXPECT_EQ(buffer.LiveEntries(), 0u);
  EXPECT_GT(added.load(), 0u);
}

TEST(MemBufferTest, ForEachVisitsEveryEntry) {
  MemBuffer buffer(SmallOptions());
  std::set<uint64_t> keys;
  for (uint64_t k = 0; k < 300; ++k) {
    if (buffer.Add(Slice(EncodeKey(k * 13)), Slice("v"), ValueType::kValue) !=
        MemBuffer::AddResult::kFull) {
      keys.insert(k * 13);
    }
  }
  ASSERT_GT(keys.size(), 150u);
  std::set<uint64_t> seen;
  buffer.ForEach([&](const Slice& key, const Slice& value, ValueType type) {
    seen.insert(DecodeKey(key));
  });
  EXPECT_EQ(seen, keys);
}

// Adds keys from `rng` until the byte budget is spent; returns every
// AddResult in order, the added keys in *keys.
std::vector<MemBuffer::AddResult> FillUntilCapacity(MemBuffer* buffer, uint64_t seed,
                                                    std::vector<uint64_t>* keys) {
  Random64 rng(seed);
  std::vector<MemBuffer::AddResult> results;
  while (buffer->LiveBytes() < buffer->CapacityBytes()) {
    const uint64_t k = rng.Next();
    results.push_back(buffer->Add(Slice(EncodeKey(k)), Slice("value-" + std::to_string(k % 97)),
                                  ValueType::kValue));
    if (results.back() == MemBuffer::AddResult::kAdded && keys != nullptr) {
      keys->push_back(k);
    }
  }
  results.push_back(buffer->Add(Slice(EncodeKey(rng.Next())), Slice("x"), ValueType::kValue));
  return results;
}

// A recycled buffer must behave exactly like a fresh one, even when it is
// reset full and with a background drain batch still marked.
TEST(MemBufferTest, ResetEmptiesAFullMidDrainBuffer) {
  MemBuffer buffer(SmallOptions());
  std::vector<uint64_t> old_keys;
  const std::vector<MemBuffer::AddResult> fresh_results =
      FillUntilCapacity(&buffer, /*seed=*/7, &old_keys);
  ASSERT_EQ(fresh_results.back(), MemBuffer::AddResult::kFull);
  ASSERT_GT(old_keys.size(), 1000u);

  // Mid-drain: marked slots in every partition, a half-claimed full drain.
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    std::vector<DrainedEntry> batch;
    ASSERT_GT(buffer.CollectAndMark(p, 16, &batch), 0u);
  }
  uint64_t begin, end;
  ASSERT_TRUE(buffer.ClaimBucketRange(buffer.NumBuckets() / 2, &begin, &end));
  buffer.MarkBucketsDone(end - begin);

  buffer.Reset();
  EXPECT_EQ(buffer.LiveEntries(), 0u);
  EXPECT_EQ(buffer.LiveBytes(), 0u);
  EXPECT_FALSE(buffer.FullyDrained());
  EXPECT_FALSE(buffer.UnderMemoryPressure());
  for (uint64_t k : old_keys) {
    ASSERT_FALSE(buffer.Get(Slice(EncodeKey(k)), nullptr, nullptr)) << k;
  }
  size_t visited = 0;
  buffer.ForEach([&](const Slice&, const Slice&, ValueType) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // Refilled with the same keys, it accepts and rejects exactly what a
  // fresh buffer does, and every slot is drainable again (no stale marks).
  EXPECT_EQ(FillUntilCapacity(&buffer, /*seed=*/7, nullptr), fresh_results);
  EXPECT_EQ(buffer.LiveEntries(), old_keys.size());
  size_t drained = 0;
  for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
    std::vector<DrainedEntry> batch;
    drained += buffer.CollectAndMark(p, SIZE_MAX, &batch);
    buffer.FinishDrain(batch);
  }
  EXPECT_EQ(drained, old_keys.size());
  EXPECT_EQ(buffer.LiveEntries(), 0u);
}

// CollectRange visits only the buckets the occupancy bitmap marks, so the
// bitmap must follow buckets that the background drain emptied and adds
// refilled.
TEST(MemBufferTest, FullDrainAfterPartialDrainAndRefillSeesEveryEntry) {
  MemBuffer buffer(SmallOptions());
  Random64 rng(11);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(rng.Next());
    buffer.Add(Slice(EncodeKey(keys.back())), Slice("a"), ValueType::kValue);
  }
  // Drain part of every partition: some buckets empty, some keep entries.
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t p = 0; p < buffer.NumPartitions(); ++p) {
      std::vector<DrainedEntry> batch;
      buffer.CollectAndMark(p, 64, &batch);
      buffer.FinishDrain(batch);
    }
  }
  // Refill: old keys (some into emptied buckets) and new ones.
  for (size_t i = 0; i < keys.size(); i += 3) {
    buffer.Add(Slice(EncodeKey(keys[i])), Slice("b"), ValueType::kValue);
  }
  for (int i = 0; i < 500; ++i) {
    buffer.Add(Slice(EncodeKey(rng.Next())), Slice("c"), ValueType::kValue);
  }

  std::map<std::string, std::string> expected;
  buffer.ForEach([&](const Slice& key, const Slice& value, ValueType) {
    expected.emplace(key.ToString(), value.ToString());
  });
  ASSERT_GT(expected.size(), 1000u);
  std::map<std::string, std::string> collected;
  uint64_t begin, end;
  while (buffer.ClaimBucketRange(64, &begin, &end)) {
    std::vector<DrainedEntry> chunk;
    buffer.CollectRange(begin, end, &chunk);
    for (const DrainedEntry& e : chunk) {
      EXPECT_TRUE(collected.emplace(e.key, e.value).second) << "duplicate in full drain";
    }
    buffer.MarkBucketsDone(end - begin);
  }
  EXPECT_TRUE(buffer.FullyDrained());
  EXPECT_EQ(collected, expected);
}

}  // namespace
}  // namespace flodb
