#include "flodb/disk/fault_env.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace flodb {

// Forwards writes to the base file while reporting every append and sync
// to the owning env, which decides what actually happens (full write,
// torn prefix, injected error) and keeps the durability bookkeeping.
class FaultInjectionWritableFile final : public WritableFile {
 public:
  FaultInjectionWritableFile(FaultInjectionEnv* env, std::string fname,
                             std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    size_t allowed = data.size();
    {
      MutexLock lock(env_->mu_);
      ++env_->append_count_;
      const bool matches = env_->fail_append_substr_.empty() ||
                           fname_.find(env_->fail_append_substr_) != std::string::npos;
      if (matches) {
        if (env_->appends_broken_) {
          return Status::IOError("injected append failure (latched)");
        }
        if (env_->appends_until_fail_ == 0) {
          env_->appends_broken_ = true;
          // A torn write puts half the data on the device before dying —
          // the classic mid-record power cut.
          allowed = env_->torn_append_ ? data.size() / 2 : 0;
        } else if (env_->appends_until_fail_ > 0) {
          --env_->appends_until_fail_;
        }
      }
    }
    if (allowed < data.size()) {
      if (allowed > 0) {
        Status s = base_->Append(Slice(data.data(), allowed));
        if (s.ok()) {
          MutexLock lock(env_->mu_);
          env_->files_[fname_].size += allowed;
        }
      }
      return Status::IOError("injected append failure");
    }
    Status s = base_->Append(data);
    if (s.ok()) {
      MutexLock lock(env_->mu_);
      env_->files_[fname_].size += data.size();
    }
    return s;
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    int delay_micros;
    uint64_t size_at_sync;
    {
      MutexLock lock(env_->mu_);
      ++env_->sync_count_;
      delay_micros = env_->sync_delay_micros_;
      if (env_->fail_syncs_) {
        return Status::IOError("injected sync failure");
      }
      // Snapshot NOW (LevelDB's pos_at_last_sync): bytes appended while
      // the sync is in flight are not covered by it and must stay
      // droppable.
      size_at_sync = env_->files_[fname_].size;
    }
    if (delay_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
    }
    Status s = base_->Sync();
    if (s.ok()) {
      MutexLock lock(env_->mu_);
      FaultInjectionEnv::FileState& state = env_->files_[fname_];
      state.synced = std::max(state.synced, size_at_sync);
    }
    return s;
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

Status FaultInjectionEnv::NewRandomAccessFile(const std::string& fname,
                                              std::unique_ptr<RandomAccessFile>* result) {
  {
    MutexLock lock(mu_);
    if (fail_new_random_access_ &&
        (fail_new_random_access_substr_.empty() ||
         fname.find(fail_new_random_access_substr_) != std::string::npos)) {
      return Status::IOError("injected NewRandomAccessFile failure: " + fname);
    }
  }
  return base_->NewRandomAccessFile(fname, result);
}

Status FaultInjectionEnv::NewWritableFile(const std::string& fname,
                                          std::unique_ptr<WritableFile>* result) {
  {
    MutexLock lock(mu_);
    if (fail_new_writable_ && (fail_new_writable_substr_.empty() ||
                               fname.find(fail_new_writable_substr_) != std::string::npos)) {
      return Status::IOError("injected NewWritableFile failure: " + fname);
    }
  }
  std::unique_ptr<WritableFile> base_file;
  Status s = base_->NewWritableFile(fname, &base_file);
  if (!s.ok()) {
    return s;
  }
  {
    // Creation truncates, so tracking restarts at zero; nothing of this
    // file is durable until its first Sync.
    MutexLock lock(mu_);
    files_[fname] = FileState{};
  }
  *result = std::make_unique<FaultInjectionWritableFile>(this, fname, std::move(base_file));
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  {
    MutexLock lock(mu_);
    if (fail_remove_ &&
        (fail_remove_substr_.empty() || fname.find(fail_remove_substr_) != std::string::npos)) {
      return Status::IOError("injected RemoveFile failure: " + fname);
    }
  }
  Status s = base_->RemoveFile(fname);
  if (s.ok()) {
    MutexLock lock(mu_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::RenameFile(const std::string& src, const std::string& target) {
  Status s = base_->RenameFile(src, target);
  if (s.ok()) {
    MutexLock lock(mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      files_[target] = it->second;
      files_.erase(it);
    }
  }
  return s;
}

Status FaultInjectionEnv::DropUnsyncedFileData() {
  std::map<std::string, FileState> snapshot;
  {
    MutexLock lock(mu_);
    snapshot = files_;
  }
  for (auto& [fname, state] : snapshot) {
    if (state.synced == state.size) {
      continue;  // fully durable
    }
    if (state.synced == 0) {
      // Never synced since creation: after a power cut the file may not
      // exist at all — model the worst case.
      base_->RemoveFile(fname);
      MutexLock lock(mu_);
      files_.erase(fname);
      continue;
    }
    std::string data;
    Status s = ReadFileToString(base_, fname, &data);
    if (!s.ok()) {
      return s;
    }
    if (data.size() > state.synced) {
      data.resize(state.synced);
    }
    s = WriteStringToFile(base_, Slice(data), fname, /*sync=*/false);
    if (!s.ok()) {
      return s;
    }
    MutexLock lock(mu_);
    files_[fname].size = state.synced;
    files_[fname].synced = state.synced;
  }
  return Status::OK();
}

void FaultInjectionEnv::FailNewWritableFiles(bool enabled, const std::string& substr) {
  MutexLock lock(mu_);
  fail_new_writable_ = enabled;
  fail_new_writable_substr_ = substr;
}

void FaultInjectionEnv::FailNewRandomAccessFiles(bool enabled, const std::string& substr) {
  MutexLock lock(mu_);
  fail_new_random_access_ = enabled;
  fail_new_random_access_substr_ = substr;
}

void FaultInjectionEnv::FailRemoveFiles(bool enabled, const std::string& substr) {
  MutexLock lock(mu_);
  fail_remove_ = enabled;
  fail_remove_substr_ = substr;
}

void FaultInjectionEnv::FailAppendAfter(uint64_t n, bool torn, const std::string& substr) {
  MutexLock lock(mu_);
  appends_until_fail_ = static_cast<int64_t>(n);
  fail_append_substr_ = substr;
  torn_append_ = torn;
  appends_broken_ = false;
}

void FaultInjectionEnv::FailSyncs(bool enabled) {
  MutexLock lock(mu_);
  fail_syncs_ = enabled;
}

void FaultInjectionEnv::SetSyncDelayMicros(int micros) {
  MutexLock lock(mu_);
  sync_delay_micros_ = micros;
}

void FaultInjectionEnv::ClearFaults() {
  MutexLock lock(mu_);
  fail_new_writable_ = false;
  fail_new_writable_substr_.clear();
  fail_new_random_access_ = false;
  fail_new_random_access_substr_.clear();
  fail_remove_ = false;
  fail_remove_substr_.clear();
  appends_until_fail_ = -1;
  fail_append_substr_.clear();
  torn_append_ = false;
  appends_broken_ = false;
  fail_syncs_ = false;
}

uint64_t FaultInjectionEnv::sync_count() const {
  MutexLock lock(mu_);
  return sync_count_;
}

uint64_t FaultInjectionEnv::append_count() const {
  MutexLock lock(mu_);
  return append_count_;
}

}  // namespace flodb
