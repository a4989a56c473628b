#include "flodb/mem/membuffer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "flodb/common/hash.h"
#include "flodb/common/key_codec.h"

namespace flodb {

namespace {

uint64_t RoundUpPow2(uint64_t v) {
  if (v < 2) {
    return 2;
  }
  return std::bit_ceil(v);
}

size_t EntryFootprint(const Slice& key, const Slice& value) {
  // Record header + slot share of the bucket; used for capacity accounting.
  return key.size() + value.size() + 32;
}

}  // namespace

MemBuffer::MemBuffer(const Options& options) : options_(options) {
  num_partitions_ = uint64_t{1} << options_.partition_bits;
  const uint64_t want_slots =
      options_.capacity_bytes / (options_.avg_entry_bytes_hint > 0 ? options_.avg_entry_bytes_hint
                                                                   : 64);
  uint64_t want_buckets = RoundUpPow2(want_slots / kSlotsPerBucket + 1);
  if (want_buckets < num_partitions_) {
    want_buckets = num_partitions_;
  }
  num_buckets_ = want_buckets;
  buckets_per_partition_ = num_buckets_ / num_partitions_;
  buckets_ = std::vector<Bucket>(num_buckets_);
  occupied_ = std::vector<std::atomic<uint64_t>>((num_buckets_ + 63) / 64);
}

MemBuffer::~MemBuffer() = default;

MemBuffer::Record* MemBuffer::MakeRecord(const Slice& key, const Slice& value, ValueType type) {
  char* mem = arena_.Allocate(sizeof(Record) + key.size() + value.size());
  auto* rec = new (mem) Record;
  rec->key_size = static_cast<uint32_t>(key.size());
  rec->value_size = static_cast<uint32_t>(value.size());
  rec->type = type;
  memcpy(mem + sizeof(Record), key.data(), key.size());
  memcpy(mem + sizeof(Record) + key.size(), value.data(), value.size());
  return rec;
}

uint64_t MemBuffer::PartitionOf(const Slice& key, int partition_bits) {
  if (partition_bits <= 0) {
    return 0;  // single partition; >> 64 would be undefined
  }
  // Big-endian keys: the numeric top bits are the first key bytes, so a
  // partition is a contiguous key range (the neighborhood property).
  return DecodeKey(key) >> (64 - partition_bits);
}

uint64_t MemBuffer::BucketIndexFor(const Slice& key) const {
  const uint64_t partition = PartitionOf(key, options_.partition_bits);
  const uint64_t h = Hash64(key, /*seed=*/0x5f10db);
  return partition * buckets_per_partition_ + (h & (buckets_per_partition_ - 1));
}

// Relaxed suffices: a bit changes only under its bucket lock, which orders
// it for the next lock holder, and full-drain collectors read the words
// only after the post-swap grace period.
void MemBuffer::MarkOccupied(uint64_t b) {
  std::atomic<uint64_t>& word = occupied_[b / 64];
  const uint64_t bit = uint64_t{1} << (b % 64);
  // Load first: a bucket refilled before it ever emptied needs no RMW on
  // the shared word.
  if ((word.load(std::memory_order_relaxed) & bit) == 0) {
    word.fetch_or(bit, std::memory_order_relaxed);
  }
}

void MemBuffer::ClearOccupied(uint64_t b) {
  occupied_[b / 64].fetch_and(~(uint64_t{1} << (b % 64)), std::memory_order_relaxed);
}

MemBuffer::AddResult MemBuffer::Add(const Slice& key, const Slice& value, ValueType type) {
  const uint64_t b = BucketIndexFor(key);
  Bucket& bucket = buckets_[b];
  SpinLockHolder guard(bucket.lock);

  int free_slot = -1;
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    Slot& slot = bucket.slots[i];
    if (slot.rec == nullptr) {
      if (free_slot < 0) {
        free_slot = i;
      }
      continue;
    }
    if (slot.rec->key() == key) {
      // In-place update. Equal-size values are overwritten in the
      // existing record (readers also hold the bucket lock, so this is
      // race-free and allocation-free — the common case for fixed-size
      // workloads). Size changes allocate a fresh record.
      const size_t old_footprint = EntryFootprint(key, slot.rec->value());
      if (slot.rec->value_size == value.size()) {
        memcpy(slot.rec->mutable_value(), value.data(), value.size());
        slot.rec->type = type;
      } else {
        slot.rec = MakeRecord(key, value, type);
        live_bytes_.fetch_add(EntryFootprint(key, value), std::memory_order_relaxed);
        live_bytes_.fetch_sub(old_footprint, std::memory_order_relaxed);
      }
      slot.version++;  // invalidates any in-flight drained copy
      return AddResult::kUpdated;
    }
  }
  // A present key was updated in place above — NEVER rejected, even at
  // capacity. Rejecting an update of a buffered key would let its newer
  // value spill to the Memtable with a sequence number OLDER than the one
  // the (stale) buffered copy later gets at drain time, resurrecting the
  // old value. New keys, in contrast, may be bounced to the Memtable.
  if (free_slot < 0 ||
      live_bytes_.load(std::memory_order_relaxed) >= options_.capacity_bytes) {
    return AddResult::kFull;
  }
  Slot& slot = bucket.slots[free_slot];
  slot.rec = MakeRecord(key, value, type);
  slot.version++;
  bucket.marked_mask &= static_cast<uint8_t>(~(1u << free_slot));
  MarkOccupied(b);
  live_entries_.fetch_add(1, std::memory_order_relaxed);
  live_bytes_.fetch_add(EntryFootprint(key, value), std::memory_order_relaxed);
  return AddResult::kAdded;
}

bool MemBuffer::Get(const Slice& key, std::string* value, ValueType* type) const {
  const Bucket& bucket = buckets_[BucketIndexFor(key)];
  SpinLockHolder guard(bucket.lock);
  for (const Slot& slot : bucket.slots) {
    if (slot.rec != nullptr && slot.rec->key() == key) {
      if (value != nullptr) {
        value->assign(slot.rec->value().data(), slot.rec->value().size());
      }
      if (type != nullptr) {
        *type = slot.rec->type;
      }
      return true;
    }
  }
  return false;
}

size_t MemBuffer::CollectAndMark(uint64_t partition, size_t max_entries,
                                 std::vector<DrainedEntry>* out) {
  const uint64_t begin = partition * buckets_per_partition_;
  const uint64_t end = begin + buckets_per_partition_;
  size_t collected = 0;
  for (uint64_t b = begin; b < end && collected < max_entries; ++b) {
    Bucket& bucket = buckets_[b];
    SpinLockHolder guard(bucket.lock);
    for (int i = 0; i < kSlotsPerBucket && collected < max_entries; ++i) {
      Slot& slot = bucket.slots[i];
      const uint8_t bit = static_cast<uint8_t>(1u << i);
      if (slot.rec == nullptr || (bucket.marked_mask & bit) != 0) {
        continue;
      }
      bucket.marked_mask |= bit;
      DrainedEntry e;
      e.key = slot.rec->key().ToString();
      e.value = slot.rec->value().ToString();
      e.type = slot.rec->type;
      e.bucket = b;
      e.slot = i;
      e.version = slot.version;
      out->push_back(std::move(e));
      ++collected;
    }
  }
  return collected;
}

void MemBuffer::FinishDrain(const std::vector<DrainedEntry>& entries) {
  for (const DrainedEntry& e : entries) {
    Bucket& bucket = buckets_[e.bucket];
    SpinLockHolder guard(bucket.lock);
    Slot& slot = bucket.slots[e.slot];
    const uint8_t bit = static_cast<uint8_t>(1u << e.slot);
    bucket.marked_mask &= static_cast<uint8_t>(~bit);
    if (slot.rec != nullptr && slot.version == e.version) {
      live_bytes_.fetch_sub(EntryFootprint(slot.rec->key(), slot.rec->value()),
                            std::memory_order_relaxed);
      live_entries_.fetch_sub(1, std::memory_order_relaxed);
      slot.rec = nullptr;
      if (std::all_of(std::begin(bucket.slots), std::end(bucket.slots),
                      [](const Slot& s) { return s.rec == nullptr; })) {
        ClearOccupied(e.bucket);
      }
    }
    // else: concurrently updated — leave the (fresher) entry for a later
    // drain pass. The stale copy already inserted in the Memtable is
    // harmless: its sequence number is older than the one the fresh value
    // will get, and lookups hit the Membuffer first anyway.
  }
}

bool MemBuffer::ClaimBucketRange(size_t chunk, uint64_t* begin, uint64_t* end) {
  const uint64_t b = claim_cursor_.fetch_add(chunk, std::memory_order_relaxed);
  if (b >= num_buckets_) {
    return false;
  }
  *begin = b;
  *end = b + chunk < num_buckets_ ? b + chunk : num_buckets_;
  return true;
}

void MemBuffer::CollectRange(uint64_t begin, uint64_t end, std::vector<DrainedEntry>* out) const {
  for (uint64_t w = begin / 64; w * 64 < end; ++w) {
    uint64_t bits = occupied_[w].load(std::memory_order_relaxed);
    // Keep only the bits of buckets in [begin, end).
    const uint64_t first = w * 64;
    if (begin > first) {
      bits &= ~uint64_t{0} << (begin - first);
    }
    if (end < first + 64) {
      bits &= (uint64_t{1} << (end - first)) - 1;
    }
    for (; bits != 0; bits &= bits - 1) {
      const uint64_t b = first + static_cast<uint64_t>(std::countr_zero(bits));
      const Bucket& bucket = buckets_[b];
      SpinLockHolder guard(bucket.lock);
      for (int i = 0; i < kSlotsPerBucket; ++i) {
        const Slot& slot = bucket.slots[i];
        if (slot.rec == nullptr) {
          continue;
        }
        DrainedEntry e;
        e.key = slot.rec->key().ToString();
        e.value = slot.rec->value().ToString();
        e.type = slot.rec->type;
        e.bucket = b;
        e.slot = i;
        e.version = slot.version;
        out->push_back(std::move(e));
      }
    }
  }
}

void MemBuffer::Reset() {
  for (size_t w = 0; w < occupied_.size(); ++w) {
    uint64_t bits = occupied_[w].exchange(0, std::memory_order_relaxed);
    for (; bits != 0; bits &= bits - 1) {
      Bucket& bucket = buckets_[w * 64 + static_cast<uint64_t>(std::countr_zero(bits))];
      SpinLockHolder guard(bucket.lock);
      bucket.marked_mask = 0;
      for (Slot& slot : bucket.slots) {
        slot.rec = nullptr;
      }
    }
  }
  arena_.Reset();
  live_entries_.store(0, std::memory_order_relaxed);
  live_bytes_.store(0, std::memory_order_relaxed);
  drain_partition_cursor_.store(0, std::memory_order_relaxed);
  claim_cursor_.store(0, std::memory_order_relaxed);
  buckets_done_.store(0, std::memory_order_relaxed);
}

void MemBuffer::ForEach(
    const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn) const {
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    const Bucket& bucket = buckets_[b];
    SpinLockHolder guard(bucket.lock);
    for (const Slot& slot : bucket.slots) {
      if (slot.rec != nullptr) {
        fn(slot.rec->key(), slot.rec->value(), slot.rec->type);
      }
    }
  }
}

}  // namespace flodb
