#include "flodb/core/write_batch.h"

#include "flodb/common/coding.h"

namespace flodb {

void WriteBatch::AppendEntry(const Slice& key, const Slice& value, ValueType type) {
  rep_.push_back(static_cast<char>(type));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
  ++count_;
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  AppendEntry(key, value, ValueType::kValue);
}

void WriteBatch::Delete(const Slice& key) { AppendEntry(key, Slice(), ValueType::kTombstone); }

void WriteBatch::Append(const WriteBatch& other) {
  rep_.append(other.rep_);
  count_ += other.count_;
}

void WriteBatch::Clear() {
  rep_.clear();
  count_ = 0;
}

Status WriteBatch::ForEach(
    const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn) const {
  return IterateRep(Slice(rep_), count_, fn);
}

Status WriteBatch::IterateRep(
    const Slice& rep, uint32_t expected_count,
    const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn) {
  Slice in = rep;
  uint32_t seen = 0;
  while (!in.empty()) {
    const auto type = static_cast<ValueType>(in[0]);
    if (type != ValueType::kValue && type != ValueType::kTombstone) {
      return Status::Corruption("bad entry type in write batch");
    }
    in.remove_prefix(1);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) || !GetLengthPrefixedSlice(&in, &value)) {
      return Status::Corruption("malformed write batch entry");
    }
    fn(key, value, type);
    ++seen;
  }
  if (seen != expected_count) {
    return Status::Corruption("write batch count mismatch");
  }
  return Status::OK();
}

}  // namespace flodb
