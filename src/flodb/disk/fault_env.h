// FaultInjectionEnv: wraps any Env and injects storage faults, in the
// LevelDB fault-injection-test mold. The durability test matrix
// (tests/fault_injection_test.cc) is built on it, and fig_sync_write uses
// its sync delay + counters to give fsync a realistic cost over MemEnv.
//
// Two capability groups:
//  * crash simulation — every byte appended through the wrapper is
//    tracked against the prefix guaranteed durable by Sync;
//    DropUnsyncedFileData() truncates each file back to that prefix
//    (removing files that were never synced at all), exactly what a
//    power loss leaves behind;
//  * fault knobs — fail NewWritableFile, NewRandomAccessFile or
//    RemoveFile (optionally only for paths containing a substring, e.g.
//    "wal-" or ".sst"), fail the Nth append (optionally writing a torn
//    prefix first), fail fsyncs, and delay fsyncs to emulate a real
//    device.
//
// Only files created through this Env are tracked; pre-existing files
// are passed through untouched. Intended for tests and benchmarks, so
// simplicity beats speed: one mutex guards all bookkeeping.

#ifndef FLODB_DISK_FAULT_ENV_H_
#define FLODB_DISK_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/synchronization.h"
#include "flodb/disk/env.h"

namespace flodb {

class FaultInjectionEnv final : public Env {
 public:
  // Does not take ownership of base.
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;

  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override { return base_->CreateDir(dirname); }
  Status GetFileSize(const std::string& fname, uint64_t* file_size) override {
    return base_->GetFileSize(fname, file_size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override;

  // ---- crash simulation ----

  // Truncates every tracked file to its last-synced prefix; files never
  // synced since creation are removed entirely. Call with the store torn
  // down (no files open) — this is "the machine lost power here".
  Status DropUnsyncedFileData();

  // ---- fault knobs ----

  // When enabled, NewWritableFile fails for paths containing `substr`
  // (every path when `substr` is empty).
  void FailNewWritableFiles(bool enabled, const std::string& substr = std::string());

  // When enabled, NewRandomAccessFile fails for paths containing `substr`
  // (every path when `substr` is empty).
  void FailNewRandomAccessFiles(bool enabled, const std::string& substr = std::string());

  // When enabled, RemoveFile fails (and leaves the file in place) for
  // paths containing `substr` (every path when `substr` is empty).
  void FailRemoveFiles(bool enabled, const std::string& substr = std::string());

  // The next `n` appends succeed; the one after fails — writing a torn
  // prefix of its data first when `torn` — and every later append fails
  // too until ClearFaults(). With a non-empty `substr`, only appends to
  // files whose path contains it count toward `n` or fail (other files
  // keep working), so a test can fail one file kind (".sst", "MANIFEST")
  // and leave the rest of the store running.
  void FailAppendAfter(uint64_t n, bool torn, const std::string& substr = std::string());

  // When enabled, every Sync fails (and durability bookkeeping freezes).
  void FailSyncs(bool enabled);

  // Sleep injected into every Sync — a stand-in for real fsync latency,
  // which MemEnv otherwise makes free (group commit would look pointless).
  void SetSyncDelayMicros(int micros);

  void ClearFaults();

  // ---- counters ----
  uint64_t sync_count() const;
  uint64_t append_count() const;

 private:
  friend class FaultInjectionWritableFile;

  struct FileState {
    uint64_t size = 0;    // bytes appended through the wrapper
    uint64_t synced = 0;  // prefix guaranteed durable
  };

  Env* const base_;
  mutable Mutex mu_;
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);

  bool fail_new_writable_ GUARDED_BY(mu_) = false;
  std::string fail_new_writable_substr_ GUARDED_BY(mu_);
  bool fail_new_random_access_ GUARDED_BY(mu_) = false;
  std::string fail_new_random_access_substr_ GUARDED_BY(mu_);
  bool fail_remove_ GUARDED_BY(mu_) = false;
  std::string fail_remove_substr_ GUARDED_BY(mu_);
  // -1 = disabled; 0 = next append fires
  int64_t appends_until_fail_ GUARDED_BY(mu_) = -1;
  // non-empty: only matching paths count
  std::string fail_append_substr_ GUARDED_BY(mu_);
  bool torn_append_ GUARDED_BY(mu_) = false;
  // latched once the Nth append fired
  bool appends_broken_ GUARDED_BY(mu_) = false;
  bool fail_syncs_ GUARDED_BY(mu_) = false;
  int sync_delay_micros_ GUARDED_BY(mu_) = 0;
  uint64_t sync_count_ GUARDED_BY(mu_) = 0;
  uint64_t append_count_ GUARDED_BY(mu_) = 0;
};

}  // namespace flodb

#endif  // FLODB_DISK_FAULT_ENV_H_
