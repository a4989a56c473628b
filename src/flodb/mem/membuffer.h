// MemBuffer: FloDB's top in-memory level (paper §4.1, §4.3).
//
// A partitioned concurrent hash table in the CLHT [21] style: cache-line-
// sized buckets of a fixed number of slots, guarded by a per-bucket
// spinlock. A put whose target bucket is full is REJECTED — that is the
// paper's admission mechanism: the writer then inserts directly into the
// Memtable (Algorithm 2 line 20).
//
// Partitioning (the "neighborhood" scheme of §4.3): the top `l` bits of
// the key select a partition; the remaining bits are hashed to a bucket
// inside the partition. Because keys are encoded big-endian, a partition
// covers a contiguous key range, so a drain batch collected from one
// partition lands in a small skiplist neighborhood — maximizing
// multi-insert path reuse (Figure 8).
//
// Drain protocol (Figure 6): a background drainer, under the bucket lock,
// (1) copies an entry and MARKS its slot, (2) multi-inserts the copies
// into the Memtable with fresh sequence numbers, then (3) re-locks and
// REMOVES each slot — but only if its version is unchanged. A concurrent
// in-place update bumps the slot version, so the (now stale) drained copy
// is simply superseded: the newer value stays in the buffer and is
// drained later with a higher sequence number; the Memtable's max-seq
// update rule makes the order of arrivals irrelevant.

#ifndef FLODB_MEM_MEMBUFFER_H_
#define FLODB_MEM_MEMBUFFER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flodb/common/arena.h"
#include "flodb/common/slice.h"
#include "flodb/mem/entry.h"
#include "flodb/common/synchronization.h"

namespace flodb {

class MemBuffer {
 public:
  static constexpr int kSlotsPerBucket = 4;

  struct Options {
    // Soft capacity; combined with bucket fullness to reject puts.
    size_t capacity_bytes = 32u << 20;
    // `l` in the paper: number of most-significant key bits that select
    // the partition. 2^l partitions.
    int partition_bits = 4;
    // Expected entry footprint, used only to size the bucket array.
    size_t avg_entry_bytes_hint = 64;
  };

  enum class AddResult {
    kAdded,    // new key installed
    kUpdated,  // existing key's value replaced in place
    kFull,     // target bucket (or the buffer) is full: caller must go to
               // the Memtable (Algorithm 2 line 20)
  };

  explicit MemBuffer(const Options& options);
  ~MemBuffer();

  MemBuffer(const MemBuffer&) = delete;
  MemBuffer& operator=(const MemBuffer&) = delete;

  AddResult Add(const Slice& key, const Slice& value, ValueType type);

  // Point lookup; returns true on hit and fills *value/*type.
  bool Get(const Slice& key, std::string* value, ValueType* type) const;

  // ---- background drain support (incremental, mutable buffer) ----

  // Claims the next partition to drain (round-robin across drainers).
  uint64_t ClaimPartition() {
    return drain_partition_cursor_.fetch_add(1, std::memory_order_relaxed) % num_partitions_;
  }

  // Collects up to max_entries unmarked entries from `partition`, marking
  // their slots. Appends to *out (key/value copied). Returns the number
  // collected; 0 means the partition had nothing drainable.
  size_t CollectAndMark(uint64_t partition, size_t max_entries, std::vector<DrainedEntry>* out);

  // Completes a drain batch: removes each slot whose version is unchanged
  // since CollectAndMark, otherwise just clears the mark (the entry was
  // concurrently updated and must be drained again later).
  void FinishDrain(const std::vector<DrainedEntry>& entries);

  // ---- full drain support (immutable buffer; scans, rotations) ----
  // Helpers repeatedly claim disjoint bucket ranges, copy out all entries
  // (no marking: the buffer is immutable for writers by then), insert them
  // into the Memtable, then report completion. Slots are never removed
  // here: once no reader can reach the buffer, the owner Resets it and
  // installs it again as the next active buffer (the paper's pair, §4.1).

  // Returns false when all buckets have been claimed.
  bool ClaimBucketRange(size_t chunk, uint64_t* begin, uint64_t* end);

  // Copies all live entries of buckets [begin, end) into *out. Visits only
  // occupied buckets, so a chunk of 64 aligned buckets is one bitmap word.
  void CollectRange(uint64_t begin, uint64_t end, std::vector<DrainedEntry>* out) const;

  // Marks `n` buckets as fully processed (drained into the Memtable).
  void MarkBucketsDone(uint64_t n) { buckets_done_.fetch_add(n, std::memory_order_acq_rel); }
  bool FullyDrained() const {
    return buckets_done_.load(std::memory_order_acquire) >= num_buckets_;
  }

  // Empties the buffer for reuse: clears the occupied buckets, frees the
  // arena and zeroes the counters and cursors. Costs O(occupied buckets).
  // Slot versions are kept; they only have to increase. The caller must
  // hold the only reference (after an RCU grace period).
  void Reset();

  // ---- introspection ----

  // seq_cst: the drainer's re-check before it parks (FloDB::ParkDrainer).
  size_t LiveEntries() const { return live_entries_.load(std::memory_order_seq_cst); }
  size_t LiveBytes() const { return live_bytes_.load(std::memory_order_relaxed); }
  size_t CapacityBytes() const { return options_.capacity_bytes; }
  uint64_t NumBuckets() const { return num_buckets_; }
  uint64_t NumPartitions() const { return num_partitions_; }

  // Arena growth beyond this factor of capacity signals that in-place
  // updates with changing sizes have orphaned too much memory; the owner
  // should rotate the buffer (FloDB core does).
  bool UnderMemoryPressure() const {
    return arena_.AllocatedBytes() > 4 * options_.capacity_bytes + (1u << 20);
  }

  // Visits every live entry (test/debug; takes bucket locks one at a time).
  void ForEach(const std::function<void(const Slice& key, const Slice& value, ValueType type)>&
                   fn) const;

 private:
  struct Record {
    uint32_t key_size;
    uint32_t value_size;
    ValueType type;
    // key bytes then value bytes follow

    Slice key() const {
      return Slice(reinterpret_cast<const char*>(this + 1), key_size);
    }
    Slice value() const {
      return Slice(reinterpret_cast<const char*>(this + 1) + key_size, value_size);
    }
    char* mutable_value() { return reinterpret_cast<char*>(this + 1) + key_size; }
  };

  struct Slot {
    Record* rec = nullptr;
    uint32_t version = 0;
  };

  struct alignas(64) Bucket {
    mutable SpinLock lock;
    uint8_t marked_mask GUARDED_BY(lock) = 0;  // bit i set => slots[i] is being drained
    Slot slots[kSlotsPerBucket] GUARDED_BY(lock);
  };

  Record* MakeRecord(const Slice& key, const Slice& value, ValueType type);
  uint64_t BucketIndexFor(const Slice& key) const;
  static uint64_t PartitionOf(const Slice& key, int partition_bits);
  // Occupancy bit maintenance; the caller holds bucket b's lock.
  void MarkOccupied(uint64_t b);
  void ClearOccupied(uint64_t b);

  const Options options_;
  uint64_t num_partitions_;
  uint64_t buckets_per_partition_;
  uint64_t num_buckets_;
  std::vector<Bucket> buckets_;
  // One bit per bucket, 64 buckets per word: set exactly while the bucket
  // holds a record. A bit changes only under its bucket's lock; the word
  // is atomic because 64 buckets share it.
  std::vector<std::atomic<uint64_t>> occupied_;
  mutable ConcurrentArena arena_;

  std::atomic<size_t> live_entries_{0};
  std::atomic<size_t> live_bytes_{0};
  std::atomic<uint64_t> drain_partition_cursor_{0};

  // Full-drain bookkeeping.
  std::atomic<uint64_t> claim_cursor_{0};
  std::atomic<uint64_t> buckets_done_{0};
};

}  // namespace flodb

#endif  // FLODB_MEM_MEMBUFFER_H_
