// KVStore convenience layer: one-entry-batch Put/Delete wrappers, the
// one-chunk Scan over NewScanIterator, and the chunk-buffering
// ScanIterator every store returns.

#include "flodb/core/kv_store.h"

#include <algorithm>

namespace flodb {

ScanIterator::ScanIterator(const Slice& low_key, size_t chunk_size, Fetch fetch)
    : chunk_size_(chunk_size), fetch_(std::move(fetch)), resume_key_(low_key.ToString()) {
  FetchChunk(/*exclusive=*/false);
}

void ScanIterator::Next() {
  ++pos_;
  if (pos_ >= chunk_.size() && !finished_) {
    FetchChunk(/*exclusive=*/true);
  }
}

void ScanIterator::FetchChunk(bool exclusive) {
  chunk_.clear();
  pos_ = 0;
  status_ = fetch_(Slice(resume_key_), exclusive, chunk_size_, &chunk_);
  if (!status_.ok()) {
    chunk_.clear();
    finished_ = true;
    return;
  }
  max_buffered_ = std::max(max_buffered_, chunk_.size());
  if (chunk_size_ == 0 || chunk_.size() < chunk_size_) {
    finished_ = true;  // range exhausted (or whole-range mode)
  }
  if (!chunk_.empty()) {
    resume_key_ = chunk_.back().key;
  }
}

Status KVStore::Scan(const ReadOptions& options, const Slice& low_key, const Slice& high_key,
                     size_t limit, std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  ReadOptions one_chunk = options;
  one_chunk.scan_chunk_size = limit;
  std::unique_ptr<ScanIterator> iter = NewScanIterator(one_chunk, low_key, high_key);
  while (iter->Valid()) {
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    if (limit != 0 && out->size() >= limit) {
      break;  // before Next(): a full chunk would otherwise fetch a second one
    }
    iter->Next();
  }
  return iter->status();
}

Status KVStore::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  // Reused per thread so the hot single-put path stays allocation-free
  // after warm-up.
  thread_local WriteBatch batch;
  batch.Clear();
  batch.Put(key, value);
  return Write(options, &batch);
}

Status KVStore::Delete(const WriteOptions& options, const Slice& key) {
  thread_local WriteBatch batch;
  batch.Clear();
  batch.Delete(key);
  return Write(options, &batch);
}

}  // namespace flodb
