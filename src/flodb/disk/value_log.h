// Value log for WiscKey-style value separation: values at or above
// DiskOptions::value_separation_threshold are appended to CRC-framed
// *.vlog files and the LSM stores a ValuePointer behind a
// ValueType::kValuePointer entry, so compaction moves pointers, not
// payloads (docs/STORAGE.md §10 is the normative byte contract).
//
// Record framing (offsets/lengths in ValuePointer cover the whole
// framed record, header included):
//
//   record  := fixed32 masked_crc | fixed32 length | payload[length]
//   payload := varint32 klen | key | value
//
// The key rides along so a vlog file is self-describing: GC and repair
// can scan a file and know which LSM entry each record belongs to.
//
// Durability contract: a vlog file is registered in the MANIFEST before
// any append to it is served, and Sync() must complete before a WAL
// sync covering records that reference the appended bytes (the WAL's
// GroupCommitLog runs the vlog sync ahead of every group fsync, and
// AddRun/compaction enforce it too). A crash can
// therefore leave garbage tails in a vlog (framed out by CRC) but never
// a durable pointer at bytes that did not reach disk.
//
// Concurrency: appends and reads of the *active* file serialize on one
// mutex (MemEnv readers alias the writer's backing string, which may
// reallocate on append); sealed files are immutable and are read
// outside the lock. Short-lived per-file pins protect the window
// between a write-path append and its application to the memory
// component, so GC never drops a file whose only reference is still
// in flight.

#ifndef FLODB_DISK_VALUE_LOG_H_
#define FLODB_DISK_VALUE_LOG_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/common/synchronization.h"
#include "flodb/disk/env.h"

namespace flodb {

// The value stored behind a ValueType::kValuePointer entry: an encoded
// reference to one framed record in a vlog file.
struct ValuePointer {
  uint64_t file_number = 0;  // *.vlog file that holds the record
  uint64_t offset = 0;       // byte offset of the record header
  uint32_t length = 0;       // whole framed record (header + payload)
};

// varint64 file_number | varint64 offset | varint32 length
void EncodeValuePointer(std::string* dst, const ValuePointer& ptr);
bool DecodeValuePointer(Slice in, ValuePointer* ptr);

// "<dbpath>/NNNNNN.vlog" — numbered from the same counter as .sst files.
std::string VlogFileName(const std::string& dbpath, uint64_t number);

class ValueLog {
 public:
  // `alloc_number` mints a fresh file number (shared with the .sst /
  // MANIFEST counter); `register_file` durably records a new vlog file
  // in the MANIFEST *before* any append to it is served, so a
  // referenced file can never be swept as an orphan.
  ValueLog(Env* env, std::string dbpath, uint64_t file_target_bytes,
           std::function<uint64_t()> alloc_number, std::function<Status(uint64_t)> register_file);
  ~ValueLog();

  // Appends one framed record and fills *ptr. With `pin` the target file
  // is pinned until Unpin(ptr->file_number) — used by the write path to
  // cover the append→memory-apply window. Rotates to a fresh file once
  // the active one reaches file_target_bytes.
  Status Append(const Slice& key, const Slice& value, ValuePointer* ptr, bool pin);

  // Reads the record at *ptr, verifies its CRC and returns the value.
  Status Read(const ValuePointer& ptr, std::string* value);

  // Fsyncs unsynced appends on the active file (no-op when clean).
  // Sealed files are synced at rotation and never written again.
  Status Sync();

  void Unpin(uint64_t file_number);
  void WaitUnpinned(uint64_t file_number);

  // Drops a cached read handle (called after the file is unlinked).
  void EvictReader(uint64_t file_number);

  uint64_t ActiveFileNumber();

  uint64_t BytesAppended() const { return bytes_appended_.load(std::memory_order_relaxed); }
  uint64_t RecordsAppended() const { return records_appended_.load(std::memory_order_relaxed); }
  uint64_t RecordsRead() const { return records_read_.load(std::memory_order_relaxed); }

  // Scans a vlog file from the start, invoking fn per well-formed record.
  // Stops cleanly at a truncated or CRC-failing record (the normal crash
  // tail); `fn` sees the same ValuePointer a resolver would use.
  static Status ScanFile(
      Env* env, const std::string& fname, uint64_t file_number,
      const std::function<void(const Slice& key, const Slice& value, const ValuePointer& ptr)>& fn);

 private:
  Status RotateLocked() REQUIRES(mu_);
  // Seals and drops the active writer after a failed Append/Flush left
  // its physical length unknown; the next Append opens a fresh file.
  void RetireBrokenActiveLocked() REQUIRES(mu_);
  Status ReaderForLocked(uint64_t file_number, std::shared_ptr<RandomAccessFile>* reader)
      REQUIRES(mu_);
  Status ReadRecord(RandomAccessFile* file, const ValuePointer& ptr, std::string* value);

  Env* const env_;
  const std::string dbpath_;
  const uint64_t file_target_bytes_;
  const std::function<uint64_t()> alloc_number_;
  const std::function<Status(uint64_t)> register_file_;

  Mutex mu_;
  CondVar pin_cv_;
  std::unique_ptr<WritableFile> active_ GUARDED_BY(mu_);
  uint64_t active_number_ GUARDED_BY(mu_) = 0;
  uint64_t active_size_ GUARDED_BY(mu_) = 0;
  bool dirty_ GUARDED_BY(mu_) = false;  // active_ has appends not yet fsync'd
  // Set when a broken active file was retired with unsynced records
  // still unsyncable; the next Sync() reports it so the covering group
  // commit fails instead of falsely acking durability.
  Status sticky_sync_error_ GUARDED_BY(mu_);
  std::map<uint64_t, int> pins_ GUARDED_BY(mu_);
  std::map<uint64_t, std::shared_ptr<RandomAccessFile>> readers_ GUARDED_BY(mu_);

  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> records_read_{0};
};

}  // namespace flodb

#endif  // FLODB_DISK_VALUE_LOG_H_
