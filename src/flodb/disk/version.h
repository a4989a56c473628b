// Version / VersionSet: the leveled file metadata of the disk component.
//
// A Version is an immutable snapshot of the file hierarchy: level 0 holds
// possibly-overlapping flushed Memtables (searched newest-first by max
// sequence number); levels >= 1 hold sorted, non-overlapping runs.
// Readers pin a Version with a shared_ptr and are never blocked by
// flushes or compactions, which install fresh Versions. Each file's
// metadata carries its open TableReader, so pinning a Version pins every
// table it names; a table closes when the last Version naming it is
// freed.
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
#include <set>
#include <string>
#include <vector>

#include "flodb/common/slice.h"
#include "flodb/common/synchronization.h"
#include "flodb/common/status.h"
#include "flodb/disk/env.h"

namespace flodb {

class TableReader;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  uint64_t entries = 0;
  std::string smallest;  // smallest user key
  std::string largest;   // largest user key
  uint64_t smallest_seq = 0;
  uint64_t largest_seq = 0;
  // The open reader, set when the file is installed (flush, compaction
  // output, recovery) and shared by every copy of this metadata. Not
  // persisted: the MANIFEST holds only the fields above. Null only in
  // metadata a test fabricates without a file behind it.
  std::shared_ptr<TableReader> table;

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
  // installs the result. Thread-safe.
  Status LogAndApply(const VersionEdit& edit);

  std::shared_ptr<const Version> Current() const;

  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1, std::memory_order_relaxed); }

  // Raises the file-number counter to at least `n`. Open calls this with
  // one past the highest .sst found on disk: a crashed compaction's
  // orphan outputs are numbered above the recovered manifest's counter,
  // and without the bump they would (a) sit behind the GC barrier
  // forever and (b) collide with numbers handed out after reopen.
  void EnsureFileNumberAtLeast(uint64_t n) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur < n &&
           !next_file_number_.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
    }
  }

  // The next number NewFileNumber would hand out. File GC uses this as a
  // barrier: a file numbered >= the barrier was born after the GC's
  // liveness snapshot and must not be touched.
  uint64_t PeekFileNumber() const { return next_file_number_.load(std::memory_order_acquire); }

  // Recovery needs to seed the sequence counter past everything on disk.
  uint64_t MaxPersistedSeq() const;

  // The MANIFEST's log number: every WAL numbered below it is persisted,
  // so recovery skips and deletes those logs. 0 when none was recorded.
  uint64_t LogNumber() const;

  // File numbers referenced by the current version.
  std::set<uint64_t> LiveFileNumbers() const;

  // File numbers referenced by ANY version still pinned by a reader
  // (union over the live-version registry). Garbage collection must use
  // this set: a scan holding an old Version may still open its files.
  std::set<uint64_t> AllLiveFileNumbers() const;

  std::string TableFileName(uint64_t number) const;
  std::string DbPath() const { return dbname_; }

  // Number of the manifest CURRENT points at. File GC keeps this one and
  // reclaims lower-numbered MANIFEST files left behind by crashed or
  // failed snapshot writes.
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

  // Registers a version for AllLiveFileNumbers and prunes expired
  // entries.
  void RegisterVersionLocked(const std::shared_ptr<const Version>& v) REQUIRES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const Version> current_ GUARDED_BY(mu_);
  std::vector<std::weak_ptr<const Version>> registry_ GUARDED_BY(mu_);
  uint64_t log_number_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> next_file_number_{1};
  // last number handed to a snapshot write
  uint64_t manifest_number_ GUARDED_BY(mu_) = 0;
  // the one CURRENT points at
  uint64_t current_manifest_number_ GUARDED_BY(mu_) = 0;
};

}  // namespace flodb

#endif  // FLODB_DISK_VERSION_H_
