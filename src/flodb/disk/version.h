// Version / VersionSet: the leveled file metadata of the disk component.
//
// A Version is an immutable snapshot of the file hierarchy: level 0 holds
// possibly-overlapping flushed Memtables, kept newest-first (by largest
// sequence number, the order a Get probes them); levels >= 1 hold sorted,
// non-overlapping runs. Flushes and compactions install fresh Versions
// and never block readers. Each file's metadata carries its open
// TableHandle, so keeping a Version keeps every table it names open; a
// table closes when the last Version naming it is freed.
//
// Two ways to read the current Version:
//   - a point lookup opens a ReadSection: an RCU read section on the
//     VersionSet's own domain, with no mutex, refcount or allocation;
//   - iterators, compactions and stats pin it with Current()'s shared_ptr,
//     because they outlive a read section.
// LogAndApply publishes the new Version, waits out a grace period, and
// only then drops the replaced one. So a table closes (and purges its
// blocks) on the installing thread or on the last pinning iterator,
// never on a Get.
//
// LogAndApply is also the one place that decides whether a table file
// stays: once the MANIFEST names the new Version, it marks the edit's
// added tables installed and its deleted ones deletable. A deletable
// table's file is unlinked when its handle is freed, so an output that
// never installs goes with its writer, and a deleted table with the last
// Version or iterator naming it.
//
// Every installed Version is persisted as a full MANIFEST snapshot
// (rewrite-on-change; simple and crash-safe at this scale) with a CURRENT
// pointer file, giving cheap recovery.

#ifndef FLODB_DISK_VERSION_H_
#define FLODB_DISK_VERSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/slice.h"
#include "flodb/common/synchronization.h"
#include "flodb/common/status.h"
#include "flodb/disk/env.h"
#include "flodb/sync/rcu.h"

namespace flodb {

class TableReader;

// An open table and the fate of its file, shared by every copy of the
// file's metadata. Freeing the last copy closes the reader, purging its
// blocks, and then unlinks the file if the handle is marked deletable. A
// new output starts marked and a recovered table unmarked; LogAndApply
// clears the mark when it installs the file and sets it when it deletes
// it. So closing the store leaves every installed table on disk.
class TableHandle {
 public:
  TableHandle(std::unique_ptr<TableReader> reader, Env* env, std::string fname, bool deletable);
  ~TableHandle();

  TableHandle(const TableHandle&) = delete;
  TableHandle& operator=(const TableHandle&) = delete;

  const TableReader& reader() const { return *reader_; }
  void set_deletable(bool deletable) { deletable_.store(deletable); }

 private:
  std::unique_ptr<TableReader> reader_;
  Env* const env_;
  const std::string fname_;
  // Set under VersionSet::mu_ by a thread holding a copy, read by the
  // destructor: the shared_ptr count orders the two.
  std::atomic<bool> deletable_;
};

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  uint64_t entries = 0;
  std::string smallest;  // smallest user key
  std::string largest;   // largest user key
  uint64_t smallest_seq = 0;
  uint64_t largest_seq = 0;
  // The open table, set when the file is written or recovered and shared
  // by every copy of this metadata. Not persisted: the MANIFEST holds only
  // the fields above. Null only in metadata a test fabricates without a
  // file behind it.
  std::shared_ptr<TableHandle> table;

  bool OverlapsRange(const Slice& begin, const Slice& end) const {
    // Empty bounds = unbounded.
    if (!end.empty() && Slice(smallest).compare(end) > 0) {
      return false;
    }
    if (!begin.empty() && Slice(largest).compare(begin) < 0) {
      return false;
    }
    return true;
  }

  bool ContainsKey(const Slice& key) const {
    return Slice(smallest).compare(key) <= 0 && Slice(largest).compare(key) >= 0;
  }
};

class Version {
 public:
  explicit Version(int num_levels) : levels_(num_levels) {}

  const std::vector<FileMetaData>& LevelFiles(int level) const { return levels_[level]; }
  int NumLevels() const { return static_cast<int>(levels_.size()); }

  uint64_t LevelBytes(int level) const;
  int NumFiles() const;

  // All files at `level` overlapping [begin, end] (empty Slice = open end).
  std::vector<FileMetaData> OverlappingFiles(int level, const Slice& begin,
                                             const Slice& end) const;

  // True if no file in levels (level, NumLevels) overlaps [begin, end]:
  // tombstones compacted into `level` can then be dropped.
  bool IsBottommostForRange(int level, const Slice& begin, const Slice& end) const;

 private:
  friend class VersionSet;

  // L0 newest-first by largest_seq, levels >= 1 by smallest key.
  void SortLevels();

  std::vector<std::vector<FileMetaData>> levels_;
};

struct VersionEdit {
  std::vector<std::pair<int, FileMetaData>> added;
  std::vector<std::pair<int, uint64_t>> deleted;  // (level, file number)
  // Non-zero: the first WAL whose records are not yet persisted
  // (LevelDB's SetLogNumber). Zero leaves the recorded number as it is.
  uint64_t log_number = 0;
};

class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname, int num_levels);

  // Loads CURRENT/MANIFEST if present; otherwise starts empty and writes
  // an initial manifest. When given, `open_table` runs on every recovered
  // file before the version installs, and its first failure fails the
  // recovery.
  Status Recover(const std::function<Status(FileMetaData*)>& open_table = nullptr);

  // Applies edit to the current version, persists the new manifest and
  // installs the result, then waits out the grace period of every
  // ReadSection that may still see the replaced Version. Only once the
  // manifest is written does it mark the added tables installed and the
  // deleted ones deletable; on failure nothing changes, and the added
  // tables stay deletable. Thread-safe; never call it inside a
  // ReadSection.
  Status LogAndApply(const VersionEdit& edit);

  // Pins the current Version for as long as the caller keeps it.
  std::shared_ptr<const Version> Current() const;

  // The current Version for the span of one short read: an RCU read
  // section, no mutex and no refcount. The Version stays valid until the
  // section ends. Hold it across no blocking wait and no LogAndApply.
  class ReadSection {
   public:
    explicit ReadSection(const VersionSet& versions)
        : guard_(versions.rcu_), version_(*versions.published_.load(std::memory_order_seq_cst)) {}
    ReadSection(const ReadSection&) = delete;
    ReadSection& operator=(const ReadSection&) = delete;

    const Version& version() const { return version_; }

   private:
    RcuReadGuard guard_;  // declared first: entered before the load
    const Version& version_;
  };

  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1, std::memory_order_relaxed); }

  // Raises the file-number counter to at least `n`. Open calls this with
  // one past the highest .sst found on disk: a crashed compaction's
  // orphan outputs are numbered above the recovered manifest's counter,
  // and one the open-time sweep could not remove would otherwise collide
  // with a number handed out after reopen.
  void EnsureFileNumberAtLeast(uint64_t n) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur < n &&
           !next_file_number_.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
    }
  }

  // Recovery needs to seed the sequence counter past everything on disk.
  uint64_t MaxPersistedSeq() const;

  // The MANIFEST's log number: every WAL numbered below it is persisted,
  // so recovery skips and deletes those logs. 0 when none was recorded.
  uint64_t LogNumber() const;

  std::string TableFileName(uint64_t number) const;
  std::string ManifestFileName(uint64_t number) const;
  std::string DbPath() const { return dbname_; }

  // Number of the manifest CURRENT points at. The open-time sweep keeps
  // this one and reclaims lower-numbered MANIFEST files left behind by
  // crashed or failed snapshot writes.
  uint64_t CurrentManifestNumber() const;

 private:
  // Persists `v` as a fresh manifest and repoints CURRENT. Bumps
  // manifest_number_/current_manifest_number_, hence the lock.
  Status WriteSnapshot(const Version& v, uint64_t log_number) REQUIRES(mu_);
  Status LoadSnapshot(const std::string& manifest_file, std::shared_ptr<Version>* out,
                      uint64_t* log_number);

  Env* const env_;
  const std::string dbname_;
  const int num_levels_;

  // Makes `v` current and publishes it to ReadSections. Returns the
  // replaced Version: the caller drops it only after rcu_.Synchronize(),
  // outside mu_.
  std::shared_ptr<const Version> InstallLocked(std::shared_ptr<const Version> v) REQUIRES(mu_);

  // ReadSections' domain. Its own, not the store's: LogAndApply runs on
  // flush and compaction threads that must not wait for memory-component
  // readers.
  mutable Rcu rcu_;
  mutable Mutex mu_;
  std::shared_ptr<const Version> current_ GUARDED_BY(mu_);
  // current_.get(), for ReadSections; stored under mu_.
  std::atomic<const Version*> published_{nullptr};
  uint64_t log_number_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> next_file_number_{1};
  // last number handed to a snapshot write
  uint64_t manifest_number_ GUARDED_BY(mu_) = 0;
  // the one CURRENT points at
  uint64_t current_manifest_number_ GUARDED_BY(mu_) = 0;
};

}  // namespace flodb

#endif  // FLODB_DISK_VERSION_H_
