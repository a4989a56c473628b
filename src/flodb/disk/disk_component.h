// DiskComponent: the persistent LSM layer shared by FloDB and every
// baseline (the paper treats it as an orthogonal black box, §3.1).
//
// Structure follows LevelDB's: level 0 holds whole flushed Memtables
// (overlapping; searched by max-seq order), levels >= 1 hold disjoint
// sorted runs; background thread(s) merge levels when size triggers fire.
// RocksDB-style multithreaded compaction is the `compaction_threads`
// knob (§2.2).
//
// Every live table is open: its TableHandle opens once, when the file is
// written or recovered, rides in the FileMetaData of each Version naming
// it, and closes — purging its blocks from the block cache — when the
// last such Version is freed: on the flush or compaction thread that
// replaced it, after an RCU grace period, or on the last iterator that
// pinned it; never on a Get. A Get reads the current Version inside a
// VersionSet::ReadSection (no mutex, refcount or allocation) and reaches
// its tables directly.
//
// A table's file is deleted in the same place, when its handle closes, if
// no installed Version names it: a new output until LogAndApply installs
// it, a compaction input once LogAndApply has replaced it. Flush and
// compaction share one table writer, which removes its own partial file
// on failure. The only directory sweep runs in Open, before the
// background threads start.

#ifndef FLODB_DISK_DISK_COMPONENT_H_
#define FLODB_DISK_DISK_COMPONENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/common/cache.h"
#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/common/synchronization.h"
#include "flodb/disk/compaction.h"
#include "flodb/disk/env.h"
#include "flodb/disk/iterator.h"
#include "flodb/disk/table_reader.h"
#include "flodb/disk/version.h"

namespace flodb {

struct DiskOptions {
  Env* env = nullptr;     // required; not owned
  std::string path;       // required; directory for all files

  size_t sstable_target_bytes = 2u << 20;  // output rolling size (compactions)
  size_t block_bytes = 4096;

  // Shared LRU block cache over decoded data blocks, keyed
  // (file_number, block_index) and charged by byte size. 0 disables
  // caching: every block read goes to the Env.
  size_t block_cache_bytes = 8u << 20;

  int num_levels = 7;
  int l0_compaction_trigger = 4;   // L0 file count that triggers L0->L1
  uint64_t l1_max_bytes = 8ull << 20;
  int level_size_multiplier = 10;

  int compaction_threads = 1;      // 0 disables background compaction
};

class DiskComponent {
 public:
  // Fails with NotSupported, before creating any file, on a directory an
  // older build wrote with value separation on (it holds *.vlog files, or
  // its MANIFEST carries a value-log section: those values are not stored
  // inline) or with the sharded store (it holds SHARDING or txn.log: its
  // data lives in shard subdirectories). Opens every live table; a
  // missing or unreadable one fails the open with a status naming it.
  static Status Open(const DiskOptions& options, std::unique_ptr<DiskComponent>* out);
  ~DiskComponent();

  DiskComponent(const DiskComponent&) = delete;
  DiskComponent& operator=(const DiskComponent&) = delete;

  // Writes the (key-ascending, per-key-deduplicated-by-first-wins) run
  // produced by `iter` as one L0 file and installs it. Blocks while L0 is
  // over the stall trigger (write backpressure, as in LevelDB/RocksDB).
  // A non-zero `log_number` is recorded in the MANIFEST with the file:
  // the first WAL whose records the run does not hold. If the file cannot
  // be written, opened for reading or installed, it is removed and
  // nothing is installed.
  Status AddRun(Iterator* iter, uint64_t log_number = 0);

  // Point lookup across all levels; freshest version wins. Takes no
  // lock: the Version is read inside an RCU read section.
  Status Get(const Slice& key, std::string* value, uint64_t* seq, ValueType* type) const;

  // Merged scan: one child per L0 file plus ONE lazy concatenating
  // iterator per deeper level (levels are disjoint, so a Seek reads only
  // the file containing the target). Duplicate user keys surface
  // freshest first (callers skip the rest). Pins the current Version,
  // and so its tables, for its lifetime.
  std::unique_ptr<Iterator> NewIterator() const;

  // Blocks until no compaction is needed or running.
  void WaitForCompactions();

  // Synchronously picks and runs ONE compaction job; *did_work reports
  // whether a job was available. For deterministic tests (run with
  // compaction_threads == 0 so no background worker races the caller).
  Status CompactOnce(bool* did_work);

  // Compacts every file overlapping [begin, end] (empty Slice = open end)
  // down to the bottommost occupied level, synchronously. Tombstones and
  // shadowed versions in the range are dropped where safe.
  Status CompactRange(const Slice& begin, const Slice& end);

  uint64_t MaxPersistedSeq() const { return versions_->MaxPersistedSeq(); }
  uint64_t LogNumber() const { return versions_->LogNumber(); }

  // The pinned current version — level shape for tests and diagnostics.
  std::shared_ptr<const Version> CurrentVersion() const { return versions_->Current(); }

  struct Stats {
    std::vector<int> files_per_level;
    std::vector<uint64_t> bytes_per_level;  // sums to the space on disk
    uint64_t bytes_flushed = 0;
    uint64_t bytes_compacted_in = 0;
    uint64_t bytes_compacted_out = 0;
    uint64_t compactions = 0;
    uint64_t flushes = 0;

    // Block cache (zero when it is disabled).
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
    uint64_t block_cache_evictions = 0;
    uint64_t block_cache_bytes = 0;         // resident charge
    uint64_t block_cache_pinned_bytes = 0;  // pinned by in-flight readers
    // Always 0: there is no table cache, every live table stays open.
    // Kept because perfbench/src/workload.cc reads them.
    uint64_t table_cache_hits = 0;
    uint64_t table_cache_misses = 0;
    // Tables the current Version names, each open with one file handle.
    uint64_t open_tables = 0;

    // Hit fraction over all block-cache probes (0 when none happened).
    double BlockCacheHitRate() const {
      const uint64_t probes = block_cache_hits + block_cache_misses;
      return probes == 0 ? 0.0
                         : static_cast<double>(block_cache_hits) / static_cast<double>(probes);
    }
  };
  Stats GetStats() const;

  const DiskOptions& options() const { return options_; }

  // The shared block cache, null when disabled. Exposed for tests and
  // diagnostics.
  ShardedLruCache* block_cache() const { return block_cache_.get(); }

 private:
  explicit DiskComponent(const DiskOptions& options);

  // Opens the table `meta` names and sets meta->table, marked `deletable`
  // (see TableHandle). On failure the status names the file.
  Status OpenTable(FileMetaData* meta, bool deletable) const;

  // Writes `iter`'s entries as tables for `level`: the first (freshest)
  // occurrence of each user key, less tombstones when `drop_tombstones`,
  // rolling to a new table at `roll_bytes`. Each finished table is synced,
  // opened deletable and added to `edit`. On failure the partial table is
  // removed, and the finished ones go with the edit.
  Status WriteTables(Iterator* iter, int level, uint64_t roll_bytes, bool drop_tombstones,
                     VersionEdit* edit);

  // Returns true, fills *job and claims it if work is available.
  bool PickCompactionLocked(CompactionJob* job) REQUIRES(mu_);
  // Marks both job levels busy and counts the job active.
  void ClaimLocked(const CompactionJob& job) REQUIRES(mu_);
  // Runs a claimed job, then releases it and wakes waiters and workers.
  Status RunJob(CompactionJob job);
  // Takes the job by value: its input metadata pins the input tables,
  // which must close (purging their blocks and unlinking their files)
  // when it returns, before RunJob signals idle_cv_.
  Status DoCompaction(CompactionJob job);
  void BackgroundWork();
  // Open's sweep over its directory listing `children`, against the
  // recovered Version: removes every table it does not name and every
  // manifest below the live one, and numbers new files past any table
  // left.
  void RemoveObsoleteFiles(const std::vector<std::string>& children);

  const DiskOptions options_;

  // Declaration order is a destruction-order contract: freeing the last
  // Versions (in ~versions_) runs TableReader destructors, which purge
  // their blocks from block_cache_ — so the block cache must be destroyed
  // AFTER (declared before) the version set.
  std::unique_ptr<ShardedLruCache> block_cache_;  // null when disabled
  std::unique_ptr<VersionSet> versions_;

  mutable Mutex mu_;  // guards compaction scheduling state below
  CondVar work_cv_;   // new work available
  CondVar idle_cv_;   // compaction finished / L0 shrank
  std::vector<bool> level_busy_ GUARDED_BY(mu_);
  CompactionPicker picker_ GUARDED_BY(mu_);  // its round-robin cursors mutate under mu_
  int active_compactions_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  // Stats (relaxed counters).
  std::atomic<uint64_t> bytes_flushed_{0};
  std::atomic<uint64_t> bytes_compacted_in_{0};
  std::atomic<uint64_t> bytes_compacted_out_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace flodb

#endif  // FLODB_DISK_DISK_COMPONENT_H_
