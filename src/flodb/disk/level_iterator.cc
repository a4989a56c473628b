#include "flodb/disk/level_iterator.h"

#include <utility>

#include "flodb/disk/table_reader.h"

namespace flodb {

namespace {

class LevelIterator final : public Iterator {
 public:
  LevelIterator(std::vector<FileMetaData> files, bool fill_cache)
      : files_(std::move(files)), fill_cache_(fill_cache) {}

  bool Valid() const override { return iter_ != nullptr && iter_->Valid(); }

  void SeekToFirst() override {
    index_ = 0;
    if (!OpenCurrent()) {
      return;
    }
    iter_->SeekToFirst();
    SkipEmptyFilesForward();
  }

  void Seek(const Slice& target) override {
    // First file whose largest key is >= target: with disjoint sorted
    // ranges it is the only file that can contain the target, and every
    // later file is entirely past it.
    size_t lo = 0, hi = files_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Slice(files_[mid].largest).compare(target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    index_ = lo;
    if (!OpenCurrent()) {
      return;
    }
    iter_->Seek(target);
    SkipEmptyFilesForward();
  }

  void Next() override {
    iter_->Next();
    SkipEmptyFilesForward();
  }

  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  uint64_t seq() const override { return iter_->seq(); }
  ValueType type() const override { return iter_->type(); }

  Status status() const override {
    if (!status_.ok()) {
      return status_;
    }
    return iter_ != nullptr ? iter_->status() : Status::OK();
  }

 private:
  // Starts iterating files_[index_]; false when past the end.
  bool OpenCurrent() {
    iter_.reset();
    if (index_ >= files_.size()) {
      return false;
    }
    iter_ = files_[index_].table->NewIterator(fill_cache_);
    return true;
  }

  // Advances to the next file while the current position is exhausted.
  void SkipEmptyFilesForward() {
    while (iter_ != nullptr && !iter_->Valid()) {
      if (!iter_->status().ok()) {
        status_ = iter_->status();
        iter_.reset();
        return;
      }
      ++index_;
      if (!OpenCurrent()) {
        return;
      }
      iter_->SeekToFirst();
    }
  }

  const std::vector<FileMetaData> files_;  // pins every table of the level
  const bool fill_cache_;

  size_t index_ = 0;
  std::unique_ptr<Iterator> iter_;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> NewLevelIterator(std::vector<FileMetaData> files, bool fill_cache) {
  return std::make_unique<LevelIterator>(std::move(files), fill_cache);
}

}  // namespace flodb
