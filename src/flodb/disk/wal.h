// Write-ahead log: CRC-framed records appended before updates are applied
// to the memory component, so acknowledged writes survive a crash
// (paper §2.1: "updates are appended to an on-disk commit-log before
// being applied to the in-memory component").
//
// Record framing: fixed32 masked_crc | fixed32 length | payload.
// One payload kind, the batch record (tag == kWalBatchRecordTag), one per
// KVStore::Write — the group-commit unit; its body is exactly
// WriteBatch::rep():
//   uint8 2 | varint32 count | count × (uint8 type | klen | key | vlen | value)
//
// Because the CRC covers the whole payload, a batch is durability-atomic:
// recovery replays it entirely or not at all. The reader stops cleanly at
// a truncated/corrupt tail (normal crash outcome) and reports genuine
// mid-log corruption as an error.

#ifndef FLODB_DISK_WAL_H_
#define FLODB_DISK_WAL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/common/synchronization.h"
#include "flodb/disk/env.h"
#include "flodb/mem/entry.h"

namespace flodb {

// First payload byte of a batch record. Tags 0 and 1 belonged to a
// retired single-update record; replay rejects them as unknown.
inline constexpr uint8_t kWalBatchRecordTag = 2;

// First payload byte of a cross-shard prepare record, written by a retired
// sharded store. Replay refuses it with NotSupported: its entries are
// visible only with a commit marker this build cannot read.
inline constexpr uint8_t kWalPrepareRecordTag = 3;

// One batch record as a writer appends it; `entries` points into the
// caller's WriteBatch::rep(), which must outlive the append.
struct WalRecord {
  uint32_t count = 0;
  Slice entries;

  static WalRecord Batch(uint32_t count, const Slice& entries) {
    return WalRecord{count, entries};
  }
};

class WalWriter {
 public:
  // Takes ownership of the file.
  explicit WalWriter(std::unique_ptr<WritableFile> file) : file_(std::move(file)) {}

  // Appends one framed record; thread-compatible (callers serialize).
  // The payload is encoded straight into one scratch buffer behind the
  // frame header: one copy of the entries, no per-record allocation once
  // the buffer has grown.
  Status Add(const WalRecord& record);

  // Appends one framed record holding an already-encoded payload.
  Status AddRecord(const Slice& payload);

  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

 private:
  // Frames scratch_ (header space, then the payload's head) followed by
  // `tail`, and appends the frame.
  Status Emit(const Slice& tail);

  std::unique_ptr<WritableFile> file_;
  std::string scratch_;
};

// The group-commit queue behind FloDB's WAL (DESIGN.md §10). It is the
// LevelDB writer queue. Every Commit queues its record and the queue's
// front is the LEADER: it appends the record of every queued writer with
// the lock dropped, so followers keep queueing behind a slow fsync and
// form the next group. It then issues at most one Sync for the group, only
// if some appended writer asked for one, and hands each writer its outcome:
//   - a broken log fails every writer;
//   - an append failure at writer i fails writers i and later;
//   - a sync failure fails only the group's sync writers;
//   - any failure latches the log broken until Repair.
//
// The log is a sequence of numbered files, named by the owner. Rotate and
// Repair retire the live file and open the next number under the queue
// lock, after any leader mid-IO finished, so they never tear a group's
// stream.
//
// Apply tokens: a committing writer may ask for one. It is taken under the
// queue lock in the current epoch's parity slot, and the writer releases
// it once its record reached memory. Rotate advances the epoch under the
// same lock and hands back the outgoing slot, so every writer either holds
// a token the rotation waits on or lands in the new epoch (DESIGN.md §10
// "Rotation ordering").
class GroupCommitLog {
 public:
  // Names the file of log `number`.
  using FileNamer = std::function<std::string(uint64_t number)>;

  // `before_sync` (optional) is a test seam: it runs ahead of every group
  // fsync, with the lock dropped, so a test can park a group leader there.
  GroupCommitLog(Env* env, FileNamer file_name, std::function<void()> before_sync = nullptr)
      : env_(env), file_name_(std::move(file_name)), before_sync_(std::move(before_sync)) {}

  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  // Opens log `number` as the live file; on failure the log is broken.
  Status Open(uint64_t number) EXCLUDES(mu_);

  // Appends `record` through the writer queue; with `sync`, OK means it is
  // durable. With a non-null `token_slot`, OK also hands the caller an
  // apply token in *token_slot, which it must ReleaseToken.
  Status Commit(const WalRecord& record, bool sync, int* token_slot = nullptr) EXCLUDES(mu_);

  void ReleaseToken(int slot) { inflight_[slot].fetch_sub(1, std::memory_order_release); }
  bool TokensOutstanding(int slot) const {
    return inflight_[slot].load(std::memory_order_acquire) != 0;
  }

  // The epoch boundary: syncs (best effort) and retires the live file,
  // advances the epoch, appends every file retired so far to *retired and
  // opens the next number. *drain_slot receives the outgoing epoch's
  // token slot. A failed open leaves the log broken.
  Status Rotate(int* drain_slot, std::vector<uint64_t>* retired) EXCLUDES(mu_);

  // If the log is broken: retires the damaged file (its synced prefix
  // still matters to recovery) and opens the next number. A lock-free
  // no-op on a healthy log; at most one attempt per 50 ms, so a sustained
  // fsync outage cannot mint one file per failed write.
  void Repair() EXCLUDES(mu_);

  bool broken() const { return broken_.load(std::memory_order_acquire); }

  // Shutdown: syncs and closes the live file.
  void Close() EXCLUDES(mu_);

  // Writers waiting in the queue, the leader included (tests).
  size_t QueuedWriters() EXCLUDES(mu_);

  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  // Groups with at least one committed writer, and their committed writers.
  uint64_t groups() const { return groups_.load(std::memory_order_relaxed); }
  uint64_t committed_writers() const { return writers_.load(std::memory_order_relaxed); }

 private:
  struct Waiter;

  Status OpenLocked(uint64_t number) REQUIRES(mu_);
  // Waits until no leader is appending or syncing with the lock dropped.
  void WaitForIdleLeaderLocked() REQUIRES(mu_);
  // Moves the live file (if any) to retired_.
  void RetireLocked() REQUIRES(mu_);

  Env* const env_;
  const FileNamer file_name_;
  const std::function<void()> before_sync_;

  Mutex mu_;
  CondVar cv_;
  std::deque<Waiter*> queue_ GUARDED_BY(mu_);
  // Set while the leader does IO with mu_ dropped; the queue front keeps
  // new arrivals followers, and rotation and repair wait it out.
  bool leader_busy_ GUARDED_BY(mu_) = false;
  std::unique_ptr<WalWriter> writer_ GUARDED_BY(mu_);
  // The number of the last file opened.
  uint64_t number_ GUARDED_BY(mu_) = 0;
  // Non-OK: broken, every Commit fails until Repair. `broken_` mirrors it
  // for lock-free probes.
  Status status_ GUARDED_BY(mu_) = Status::IOError("log is not open");
  std::atomic<bool> broken_{true};
  // Files closed since the last Rotate.
  std::vector<uint64_t> retired_ GUARDED_BY(mu_);
  // Rotations so far; parity picks the token slot.
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  uint64_t last_repair_nanos_ GUARDED_BY(mu_) = 0;
  // Committed writers that have not released their apply token, by
  // epoch parity.
  std::atomic<uint64_t> inflight_[2] = {0, 0};

  std::atomic<uint64_t> syncs_{0}, groups_{0}, writers_{0};
};

class WalReader {
 public:
  explicit WalReader(std::unique_ptr<SequentialFile> file) : file_(std::move(file)) {}

  // Reads the next record into *payload (valid until next call). Returns
  // false at end of log (clean end or truncated tail).
  bool ReadRecord(std::string* payload);

  // Non-OK if mid-log corruption was detected (distinct from a truncated
  // tail, which is expected after a crash).
  Status status() const { return status_; }

  // Replays every well-formed update through fn, expanding batch records
  // in order. A truncated tail record is dropped whole — a half-written
  // batch never partially replays. A prepare record fails the replay
  // with NotSupported.
  Status ReplayUpdates(
      const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn);

 private:
  std::unique_ptr<SequentialFile> file_;
  Status status_;
};

}  // namespace flodb

#endif  // FLODB_DISK_WAL_H_
