// KVStore: the user-facing interface implemented by FloDB and by the
// baseline stores (LevelDB-like, HyperLevelDB-like, RocksDB-like), so the
// benchmark harness drives them interchangeably.
//
// v2 surface (see DESIGN.md §2/§4 for the exact guarantees):
//
//   Write(WriteOptions, WriteBatch*)   — commits a batch of Put/Delete
//       records as one unit: one WAL record, one contiguous sequence
//       range, one pass through the memory component. Put/Delete are thin
//       one-entry-batch wrappers over it.
//   Get(ReadOptions, key, value)       — point lookup.
//   NewScanIterator(ReadOptions, l, h) — pull-based range scan that
//       streams results in bounded chunks instead of materializing the
//       whole range; ReadOptions::snapshot_mode hints the snapshot
//       protocol (FloDB: master vs. piggyback, paper §4.4). Every store
//       implements range reads here and only here.
//   Scan(ReadOptions, l, h, limit, out) — a one-chunk read of that
//       iterator (chunk size = limit), so the whole result is one
//       snapshot.

#ifndef FLODB_CORE_KV_STORE_H_
#define FLODB_CORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/disk_component.h"

namespace flodb {

struct StoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;  // range reads opened: vector Scans and streaming iterators

  // Batch ingestion (group commit amortization = batch_entries /
  // batch_writes; one-entry Put/Delete wrappers count as batches of 1).
  uint64_t batch_writes = 0;      // Write() commits
  uint64_t batch_entries = 0;     // entries across those commits
  uint64_t wal_batch_records = 0; // WAL batch records appended

  // Durability pipeline (DESIGN.md §10; zero for stores without a WAL).
  uint64_t wal_syncs = 0;             // fsyncs issued against the WAL
  uint64_t group_commit_groups = 0;   // leader rounds through the writer queue
  uint64_t group_commit_writers = 0;  // writers committed across those rounds
  uint64_t persist_failures = 0;      // failed Memtable->disk persist attempts

  // FloDB-specific (zero for baselines).
  uint64_t membuffer_adds = 0;      // updates completed in the Membuffer
  uint64_t memtable_direct_adds = 0;  // updates that spilled to the Memtable
  uint64_t drained_entries = 0;
  uint64_t scan_restarts = 0;
  uint64_t fallback_scans = 0;
  uint64_t master_scans = 0;
  uint64_t piggyback_scans = 0;
  uint64_t membuffer_rotations = 0;

  DiskComponent::Stats disk;
};

// Snapshot protocol hint for scans (FloDB honors it; baselines, whose
// multi-versioned scans are always snapshot reads, ignore it).
enum class SnapshotMode : uint8_t {
  kAuto,       // store picks: piggyback on a running scan, else master
  kMaster,     // force a fresh master snapshot (linearizable, pays the
               // Membuffer swap + full drain)
  kPiggyback,  // reuse any published snapshot seq (serializable, cheap);
               // falls back to master when none is available
};

struct ReadOptions {
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;

  // Update the store's per-operation counters. Turn off for internal or
  // bookkeeping reads that would skew benchmark stats.
  bool fill_stats = true;

  // Entries a ScanIterator buffers per fetch. The iterator's memory use
  // is bounded by this regardless of range size. 0 = materialize the
  // whole range in one chunk.
  size_t scan_chunk_size = 1024;
};

struct WriteOptions {
  // Fsync the WAL before Write returns (group commit makes this
  // affordable: one fsync covers the whole batch and every concurrently
  // queued sync writer — see DESIGN.md §10). Only FloDB with enable_wal
  // honors it: the baseline stores have no WAL, so for them sync=true is
  // an explicit no-op and provides NO crash durability.
  bool sync = false;

  // Update the store's per-operation counters.
  bool fill_stats = true;
};

// One live scan result: the winning version's key, value and seq.
struct ScanEntry {
  std::string key;
  std::string value;
  uint64_t seq = 0;
};

// Pull-based scan cursor, the one every store's NewScanIterator returns.
// Usage:
//
//   auto it = store->NewScanIterator(opts, low, high);
//   for (; it->Valid(); it->Next()) use(it->key(), it->value());
//   if (!it->status().ok()) ...
//
// The iterator must not outlive the store. Results arrive in strictly
// ascending key order with tombstones elided. It holds at most one chunk
// and refills it through `fetch`, resuming just past the last key it
// emitted; each chunk is whatever snapshot the store took for that fetch,
// internally consistent, and consecutive chunks never move backwards in
// time (see DESIGN.md §4 for the exact snapshot guarantee).
class ScanIterator final {
 public:
  // Fills *out with up to `limit` (0 = all) live entries of the store's
  // range in key order, starting at `start` — or just past it when
  // `exclusive`.
  using Fetch = std::function<Status(const Slice& start, bool exclusive, size_t limit,
                                     std::vector<ScanEntry>* out)>;

  // Fetches the first chunk (up to chunk_size entries, 0 = the whole
  // range) before returning.
  ScanIterator(const Slice& low_key, size_t chunk_size, Fetch fetch);

  bool Valid() const { return pos_ < chunk_.size(); }
  void Next();

  // REQUIRES Valid(). Slices are valid until the next Next() call.
  Slice key() const { return Slice(chunk_[pos_].key); }
  Slice value() const { return Slice(chunk_[pos_].value); }

  // Sequence number of the version this entry carries — the seq assigned
  // when the winning update entered the Memtable (or was persisted).
  // REQUIRES Valid().
  uint64_t seq() const { return chunk_[pos_].seq; }

  // Non-OK when the stream terminated on an error (iteration ends early).
  Status status() const { return status_; }

  // Largest number of entries this iterator ever held in memory at once —
  // the observable "streams without materializing" bound.
  size_t MaxBufferedEntries() const { return max_buffered_; }

 private:
  void FetchChunk(bool exclusive);

  const size_t chunk_size_;
  const Fetch fetch_;
  std::string resume_key_;  // the low bound, then the last emitted key
  std::vector<ScanEntry> chunk_;
  size_t pos_ = 0;
  bool finished_ = false;
  size_t max_buffered_ = 0;
  Status status_;
};

class KVStore {
 public:
  virtual ~KVStore() = default;

  // ---- v2 core surface ----

  // Commits `batch` (left intact, so callers may retry or reuse it).
  // Entries apply in batch order; last write wins for duplicate keys.
  virtual Status Write(const WriteOptions& options, WriteBatch* batch) = 0;

  // On hit fills *value and returns OK; NotFound for absent or deleted keys.
  virtual Status Get(const ReadOptions& options, const Slice& key, std::string* value) = 0;

  // Streams [low_key, high_key) without materializing it (empty high_key
  // = unbounded above). Counts one scan when options.fill_stats is set.
  virtual std::unique_ptr<ScanIterator> NewScanIterator(const ReadOptions& options,
                                                        const Slice& low_key,
                                                        const Slice& high_key) = 0;

  // Returns up to `limit` live entries with low_key <= key < high_key in
  // key order (limit 0 = unbounded; empty high_key = unbounded above):
  // one chunk of NewScanIterator sized by `limit`. Virtual only so a
  // decorator can wrap it; stores implement NewScanIterator.
  virtual Status Scan(const ReadOptions& options, const Slice& low_key, const Slice& high_key,
                      size_t limit, std::vector<std::pair<std::string, std::string>>* out);

  // ---- convenience wrappers (thin one-entry batches / default options) ----

  Status Put(const Slice& key, const Slice& value) { return Put(WriteOptions(), key, value); }
  Status Put(const WriteOptions& options, const Slice& key, const Slice& value);
  Status Delete(const Slice& key) { return Delete(WriteOptions(), key); }
  Status Delete(const WriteOptions& options, const Slice& key);
  Status Get(const Slice& key, std::string* value) { return Get(ReadOptions(), key, value); }
  Status Scan(const Slice& low_key, const Slice& high_key, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) {
    return Scan(ReadOptions(), low_key, high_key, limit, out);
  }

  // Pushes all in-memory data to the disk component (if any) and waits for
  // background work to settle. Test/benchmark aid.
  virtual Status FlushAll() = 0;

  // Synchronously compacts every persisted file overlapping
  // [begin, end] (empty Slice = open end) down to the bottommost
  // occupied level. Stores without a disk component treat this as a
  // no-op. FloDB flushes memory first so the whole range is subject to
  // the compaction.
  virtual Status CompactRange(const Slice& /*begin*/, const Slice& /*end*/) {
    return Status::OK();
  }

  virtual StoreStats GetStats() const = 0;
  virtual std::string Name() const = 0;
};

}  // namespace flodb

#endif  // FLODB_CORE_KV_STORE_H_
