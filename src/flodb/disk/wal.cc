#include "flodb/disk/wal.h"

#include "flodb/common/clock.h"
#include "flodb/common/coding.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/crc32c.h"

namespace flodb {

namespace {

constexpr size_t kHeaderSize = 8;  // fixed32 masked_crc | fixed32 length

}  // namespace

Status WalWriter::Add(const WalRecord& record) {
  scratch_.assign(kHeaderSize, '\0');
  scratch_.push_back(static_cast<char>(kWalBatchRecordTag));
  PutVarint32(&scratch_, record.count);
  return Emit(record.entries);
}

Status WalWriter::AddRecord(const Slice& payload) {
  scratch_.assign(kHeaderSize, '\0');
  return Emit(payload);
}

Status WalWriter::Emit(const Slice& tail) {
  const size_t head = scratch_.size() - kHeaderSize;
  const uint32_t crc = crc32c::Extend(crc32c::Value(scratch_.data() + kHeaderSize, head),
                                      tail.data(), tail.size());
  EncodeFixed32(scratch_.data(), crc32c::Mask(crc));
  EncodeFixed32(scratch_.data() + 4, static_cast<uint32_t>(head + tail.size()));
  scratch_.append(tail.data(), tail.size());
  return file_->Append(scratch_);
}

// One queued Commit; lives on the committing thread's stack.
struct GroupCommitLog::Waiter {
  const WalRecord* record = nullptr;
  bool sync = false;
  bool wants_token = false;
  bool done = false;
  int token_slot = -1;
  Status status;
};

Status GroupCommitLog::Open(uint64_t number) {
  MutexLock lock(mu_);
  return OpenLocked(number);
}

Status GroupCommitLog::OpenLocked(uint64_t number) {
  // Created under mu_ so that files are installed in number order:
  // recovery replays logs by number.
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(file_name_(number), &file);
  if (!s.ok()) {
    status_ = s;
    broken_.store(true, std::memory_order_release);
    return s;
  }
  number_ = number;
  writer_ = std::make_unique<WalWriter>(std::move(file));
  status_ = Status::OK();
  broken_.store(false, std::memory_order_release);
  return s;
}

void GroupCommitLog::WaitForIdleLeaderLocked() {
  // An explicit loop: leader_busy_ is guarded state, so it must be read
  // in this annotated scope, not in a lambda.
  while (leader_busy_) {
    cv_.Wait(mu_);
  }
}

void GroupCommitLog::RetireLocked() {
  if (writer_ != nullptr) {
    writer_->Close();
    retired_.push_back(number_);
    writer_.reset();
  }
}

Status GroupCommitLog::Commit(const WalRecord& record, bool sync, int* token_slot) {
  Waiter me;
  me.record = &record;
  me.sync = sync;
  me.wants_token = token_slot != nullptr;

  // Explicit lock()/unlock() pairing (not MutexLock): the leader drops
  // mu_ mid-scope for the Append+Sync phase, and the analysis checks the
  // manual pairing on every branch.
  mu_.lock();
  queue_.push_back(&me);
  while (!me.done && queue_.front() != &me) {
    cv_.Wait(mu_);
  }
  if (me.done) {
    // A leader committed this record as part of its group. `me` is ours
    // alone again (the leader erased it from the queue before setting
    // done under mu_), so its fields are safe to read unlocked.
    mu_.unlock();
  } else {
    // Leader: the whole queue is the group.
    std::vector<Waiter*> group(queue_.begin(), queue_.end());
    // Appending to a broken log (unknown tail) would fake durability.
    const Status broken = status_;
    size_t appended = 0;
    bool group_has_sync = false;
    Status append_error;
    Status sync_error;
    if (broken.ok()) {
      WalWriter* writer = writer_.get();
      leader_busy_ = true;
      mu_.unlock();
      for (Waiter* w : group) {
        append_error = writer->Add(*w->record);
        if (!append_error.ok()) {
          break;
        }
        ++appended;
        group_has_sync = group_has_sync || w->sync;
      }
      if (appended > 0 && group_has_sync) {
        if (before_sync_) {
          before_sync_();
        }
        syncs_.fetch_add(1, std::memory_order_relaxed);
        sync_error = writer->Sync();
      }
      mu_.lock();
      leader_busy_ = false;
    }
    if (!append_error.ok() || !sync_error.ok()) {
      status_ = append_error.ok() ? sync_error : append_error;
      broken_.store(true, std::memory_order_release);
    }

    // Outcomes. An appended record is durable-ordered; a sync writer also
    // needs the fsync, and one whose fsync failed does not apply (its
    // record may still replay after a crash — the usual contract for an
    // unacknowledged write). Tokens are taken here, under mu_, so a
    // rotation either sees them or has already moved the epoch on.
    const int slot = static_cast<int>(epoch_ & 1);
    uint64_t committed = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      Waiter* w = group[i];
      if (!broken.ok()) {
        w->status = broken;
      } else if (i >= appended) {
        w->status = append_error;
      } else if (w->sync && !sync_error.ok()) {
        w->status = sync_error;
      } else {
        ++committed;
        if (w->wants_token) {
          w->token_slot = slot;
          inflight_[slot].fetch_add(1, std::memory_order_relaxed);
        }
      }
      w->done = true;
    }
    if (committed > 0) {
      // Failed groups stay out, or an outage would read as good coalescing.
      groups_.fetch_add(1, std::memory_order_relaxed);
      writers_.fetch_add(committed, std::memory_order_relaxed);
    }
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(group.size()));
    mu_.unlock();
    // Wake the group's followers, the next leader and waiting rotations.
    cv_.SignalAll();
  }
  if (token_slot != nullptr) {
    *token_slot = me.token_slot;
  }
  return me.status;
}

Status GroupCommitLog::Rotate(int* drain_slot, std::vector<uint64_t>* retired) {
  MutexLock lock(mu_);
  WaitForIdleLeaderLocked();
  if (writer_ != nullptr) {
    // Best effort: an unsynced tail holds only sync=false acks, which may
    // be lost.
    writer_->Sync();
  }
  RetireLocked();
  *drain_slot = static_cast<int>(epoch_ & 1);
  ++epoch_;
  retired->insert(retired->end(), retired_.begin(), retired_.end());
  retired_.clear();
  return OpenLocked(number_ + 1);
}

void GroupCommitLog::Repair() {
  if (!broken()) {
    return;
  }
  MutexLock lock(mu_);
  WaitForIdleLeaderLocked();
  if (status_.ok()) {
    return;  // lost the race to another repairer
  }
  constexpr uint64_t kRepairBackoffNanos = 50ull * 1000 * 1000;
  const uint64_t now = NowNanos();
  if (now - last_repair_nanos_ < kRepairBackoffNanos) {
    return;
  }
  last_repair_nanos_ = now;
  RetireLocked();
  OpenLocked(number_ + 1);
}

void GroupCommitLog::Close() {
  std::unique_ptr<WalWriter> writer;
  {
    MutexLock lock(mu_);
    WaitForIdleLeaderLocked();
    writer = std::move(writer_);
    status_ = Status::IOError("log is closed");
    broken_.store(true, std::memory_order_release);
  }
  if (writer == nullptr) {
    return;
  }
  writer->Sync();
  writer->Close();
}

size_t GroupCommitLog::QueuedWriters() {
  MutexLock lock(mu_);
  return queue_.size();
}

bool WalReader::ReadRecord(std::string* payload) {
  char header[8];
  Slice h;
  status_ = file_->Read(sizeof(header), &h, header);
  if (!status_.ok() || h.size() < sizeof(header)) {
    return false;  // clean EOF or truncated header => end of usable log
  }
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(h.data()));
  const uint32_t length = DecodeFixed32(h.data() + 4);
  payload->resize(length);
  Slice body;
  status_ = file_->Read(length, &body, payload->data());
  if (!status_.ok()) {
    return false;
  }
  if (body.size() < length) {
    // Truncated tail: the record was being written when we crashed.
    return false;
  }
  if (body.data() != payload->data()) {
    payload->assign(body.data(), body.size());
  }
  const uint32_t actual_crc = crc32c::Value(payload->data(), payload->size());
  if (actual_crc != expected_crc) {
    status_ = Status::Corruption("WAL record checksum mismatch");
    return false;
  }
  return true;
}

Status WalReader::ReplayUpdates(
    const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn) {
  std::string payload;
  while (ReadRecord(&payload)) {
    Slice in(payload);
    if (in.empty()) {
      return Status::Corruption("empty WAL record");
    }
    const uint8_t tag = static_cast<uint8_t>(in[0]);
    if (tag == kWalPrepareRecordTag) {
      return Status::NotSupported(
          "WAL holds a cross-shard prepare record: logs written by a sharded store are not "
          "supported");
    }
    if (tag != kWalBatchRecordTag) {
      return Status::Corruption("unknown WAL record tag");
    }
    in.remove_prefix(1);
    uint32_t count = 0;
    if (!GetVarint32(&in, &count)) {
      return Status::Corruption("malformed WAL batch header");
    }
    Status s = WriteBatch::IterateRep(in, count, fn);
    if (!s.ok()) {
      return Status::Corruption("malformed WAL batch record");
    }
  }
  return status_;
}

}  // namespace flodb
