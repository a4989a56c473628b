// BaselineStore: one engine, four synchronization designs — behavioural
// re-implementations of the systems FloDB is evaluated against (§2.2):
//
//  * kLevelDB       — single-writer design: writers deposit intended
//                     writes in a queue; the queue leader applies a group
//                     sequentially. Readers take the global mutex briefly
//                     at the START and END of every operation.
//  * kHyperLevelDB  — concurrent memtable inserts, but a global mutex at
//                     the start and end of each write plus IN-ORDER
//                     version publication (each writer waits for its
//                     predecessor's sequence number to commit).
//  * kRocksDB       — lock-free read path (no global mutex on Gets),
//                     single-writer group commit for writes, and
//                     MULTITHREADED compaction (disk.compaction_threads).
//                     memtable_kind selects skiplist (Fig 3) or hash
//                     table (Fig 4) memtables.
//  * kCLSM          — global shared-exclusive lock: all operations take
//                     it shared; memtable switches take it exclusive
//                     ("RocksDB/cLSM" series in the figures).
//
// All four share the same multi-versioned BaselineMemTable and the same
// DiskComponent as FloDB, so differences in the figures come from the
// memory-component design — exactly the paper's claim.

#ifndef FLODB_BASELINES_BASELINE_STORE_H_
#define FLODB_BASELINES_BASELINE_STORE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/baselines/baseline_memtable.h"
#include "flodb/common/synchronization.h"
#include "flodb/core/kv_store.h"
#include "flodb/disk/disk_component.h"
#include "flodb/sync/rcu.h"

namespace flodb {

struct BaselineOptions {
  enum class Concurrency { kLevelDB, kHyperLevelDB, kRocksDB, kCLSM };

  std::string name = "Baseline";
  Concurrency concurrency = Concurrency::kLevelDB;
  BaselineMemTable::Kind memtable_kind = BaselineMemTable::Kind::kSkipList;

  size_t memtable_bytes = 4u << 20;
  bool enable_persistence = true;
  DiskOptions disk;

  // The paper's baselines as the figures run them (§2.2). Each preset
  // names its store ("LevelDB-like", ...), gives the whole memory budget
  // to the single memtable, and sets the design's compaction threads.
  // Open one with BaselineStore::Open.

  // Single-writer leader queue; one compaction thread.
  static BaselineOptions LevelDB(size_t memtable_bytes, const DiskOptions& disk);
  // Concurrent inserts, bracketing mutexes, in-order publication; one
  // compaction thread.
  static BaselineOptions HyperLevelDB(size_t memtable_bytes, const DiskOptions& disk);
  // Lock-free reads, two compaction threads. `kind` picks the skiplist
  // (Fig 3) or hash-table (Fig 4) memtable.
  static BaselineOptions RocksDB(size_t memtable_bytes, const DiskOptions& disk,
                                 BaselineMemTable::Kind kind = BaselineMemTable::Kind::kSkipList);
  // "RocksDB/cLSM": RocksDB under a global shared-exclusive lock.
  static BaselineOptions CLSM(size_t memtable_bytes, const DiskOptions& disk);
};

class BaselineStore final : public KVStore {
 public:
  static Status Open(const BaselineOptions& options, std::unique_ptr<BaselineStore>* out);
  ~BaselineStore() override;

  BaselineStore(const BaselineStore&) = delete;
  BaselineStore& operator=(const BaselineStore&) = delete;

  using KVStore::Get;

  // v2 surface. A batch funnels through the store's own write protocol
  // entry by entry (the single-writer designs still group concurrent
  // batches via their leader queue); WriteOptions::sync is a no-op — the
  // baselines carry no WAL. ReadOptions::snapshot_mode is ignored: the
  // multi-versioned memtable gives every scan a snapshot for free.
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override
      EXCLUDES(clsm_mu_);
  // Each chunk is a snapshot of its own, taken at fetch time; the first is
  // fetched before this returns.
  std::unique_ptr<ScanIterator> NewScanIterator(const ReadOptions& options, const Slice& low_key,
                                                const Slice& high_key) override
      EXCLUDES(clsm_mu_);
  Status FlushAll() override;
  StoreStats GetStats() const override;
  std::string Name() const override { return options_.name; }

  uint64_t CommittedSeq() const { return committed_seq_.load(std::memory_order_acquire); }

 private:
  struct Writer {
    Slice key;
    Slice value;
    ValueType type;
    bool done = false;
    Status status;
  };

  explicit BaselineStore(const BaselineOptions& options);

  Status Update(const Slice& key, const Slice& value, ValueType type);
  Status WriteSingleWriter(const Slice& key, const Slice& value, ValueType type)
      EXCLUDES(writers_mu_);
  Status WriteHyper(const Slice& key, const Slice& value, ValueType type) EXCLUDES(db_mu_);
  Status WriteClsm(const Slice& key, const Slice& value, ValueType type) EXCLUDES(clsm_mu_);

  // The bodies of Get and of one scan chunk minus the cLSM shared lock,
  // so the lock can be taken (or not) in a scope the analysis can follow.
  Status GetImpl(const ReadOptions& options, const Slice& key, std::string* value)
      EXCLUDES(db_mu_);
  // Up to `limit` (0 = all) live entries of [start, high_key) at one
  // snapshot, skipping `start` itself when `exclusive_start`.
  Status ScanImpl(const Slice& start, bool exclusive_start, const Slice& high_key, size_t limit,
                  std::vector<ScanEntry>* out) EXCLUDES(db_mu_);

  // Blocks until the active memtable has room; swaps in a new one (and
  // hands the full one to the flush thread) when needed.
  void EnsureRoom() EXCLUDES(db_mu_, clsm_mu_);
  void SwapMemtableLocked() REQUIRES(db_mu_);  // imm slot must be free
  void AdvanceCommitted(uint64_t seq);
  void PublishInOrder(uint64_t seq);

  void FlushLoop();

  BaselineMemTable* NewMemTable() const {
    return new BaselineMemTable(options_.memtable_kind, options_.memtable_bytes);
  }

  const BaselineOptions options_;

  Rcu rcu_;  // safe memtable reclamation (stand-in for refcounted versions)
  std::atomic<BaselineMemTable*> mem_{nullptr};
  std::atomic<BaselineMemTable*> imm_{nullptr};
  std::unique_ptr<DiskComponent> disk_;

  std::atomic<uint64_t> seq_{1};
  std::atomic<uint64_t> committed_seq_{0};

  // The global mutex of LevelDB/Hyper. Deliberately a pure critical-
  // section lock: the state it serializes (mem_/imm_) is atomic for the
  // lock-free designs, so nothing is GUARDED_BY it.
  Mutex db_mu_;
  CondVar room_cv_;     // imm slot freed
  SharedMutex clsm_mu_;  // cLSM's shared-exclusive lock

  Mutex writers_mu_;
  CondVar writers_cv_;
  std::deque<Writer*> writers_ GUARDED_BY(writers_mu_);

  std::thread flush_thread_;
  // flush_cv_'s predicates read only atomics (stop_, imm_); nothing is
  // guarded by flush_mu_.
  Mutex flush_mu_;
  CondVar flush_cv_;
  std::atomic<bool> stop_{false};

  mutable std::atomic<uint64_t> puts_{0}, gets_{0}, deletes_{0}, scans_{0};
  mutable std::atomic<uint64_t> batch_writes_{0}, batch_entries_{0};
};

}  // namespace flodb

#endif  // FLODB_BASELINES_BASELINE_STORE_H_
