#include "flodb/disk/table_reader.h"

#include <cstring>

#include "flodb/common/coding.h"
#include "flodb/disk/crc32c.h"
#include "flodb/disk/table_format.h"

namespace flodb {

namespace {

void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  delete static_cast<std::string*>(value);
}

}  // namespace

const char* ParseTableEntry(const char* p, const char* limit, Slice* key, uint64_t* seq,
                            ValueType* type, Slice* value) {
  uint32_t klen;
  p = GetVarint32Ptr(p, limit, &klen);
  if (p == nullptr || static_cast<size_t>(limit - p) < klen) {
    return nullptr;
  }
  *key = Slice(p, klen);
  p += klen;
  p = GetVarint64Ptr(p, limit, seq);
  if (p == nullptr || p >= limit) {
    return nullptr;
  }
  const auto raw_type = static_cast<uint8_t>(*p);
  if (raw_type != static_cast<uint8_t>(ValueType::kValue) &&
      raw_type != static_cast<uint8_t>(ValueType::kTombstone)) {
    return nullptr;  // unknown value type
  }
  *type = static_cast<ValueType>(raw_type);
  p++;
  uint32_t vlen;
  p = GetVarint32Ptr(p, limit, &vlen);
  if (p == nullptr || static_cast<size_t>(limit - p) < vlen) {
    return nullptr;
  }
  *value = Slice(p, vlen);
  return p + vlen;
}

Slice TableReader::BlockCacheKey(uint64_t cache_id, uint64_t block_index, char* buf) {
  EncodeFixed64(buf, cache_id);
  EncodeFixed64(buf + 8, block_index);
  return Slice(buf, kBlockCacheKeySize);
}

Status TableReader::Open(std::unique_ptr<RandomAccessFile> file, uint64_t file_size,
                         const Options& options, std::unique_ptr<TableReader>* reader) {
  if (file_size < kFooterSize) {
    return Status::Corruption("table file too small");
  }
  char footer_buf[kFooterSize];
  Slice footer;
  Status s = file->Read(file_size - kFooterSize, kFooterSize, &footer, footer_buf);
  if (!s.ok()) {
    return s;
  }
  if (footer.size() != kFooterSize) {
    return Status::Corruption("truncated table footer");
  }
  const char* f = footer.data();
  const uint64_t index_offset = DecodeFixed64(f);
  const uint64_t index_size = DecodeFixed64(f + 8);
  const uint64_t filter_offset = DecodeFixed64(f + 16);
  const uint64_t filter_size = DecodeFixed64(f + 24);
  const uint64_t entry_count = DecodeFixed64(f + 32);
  const uint64_t magic = DecodeFixed64(f + 40);
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  if (index_offset + index_size > file_size || filter_offset + filter_size > file_size) {
    return Status::Corruption("table footer offsets out of range");
  }

  auto table = std::unique_ptr<TableReader>(new TableReader());
  table->cache_options_ = options;
  table->num_entries_ = entry_count;

  // Load filter.
  table->filter_.resize(filter_size);
  if (filter_size > 0) {
    Slice result;
    s = file->Read(filter_offset, filter_size, &result, table->filter_.data());
    if (!s.ok()) {
      return s;
    }
    if (result.size() != filter_size) {
      return Status::Corruption("truncated filter block");
    }
    if (result.data() != table->filter_.data()) {
      memcpy(table->filter_.data(), result.data(), filter_size);
    }
  }

  // Load index.
  std::string index_data(index_size, '\0');
  if (index_size > 0) {
    Slice result;
    s = file->Read(index_offset, index_size, &result, index_data.data());
    if (!s.ok()) {
      return s;
    }
    if (result.size() != index_size) {
      return Status::Corruption("truncated index block");
    }
    if (result.data() != index_data.data()) {
      memcpy(index_data.data(), result.data(), index_size);
    }
  }
  Slice in(index_data);
  while (!in.empty()) {
    uint32_t klen;
    if (!GetVarint32(&in, &klen) || in.size() < klen + 16) {
      return Status::Corruption("malformed index entry");
    }
    IndexEntry e;
    e.last_key.assign(in.data(), klen);
    in.remove_prefix(klen);
    e.offset = DecodeFixed64(in.data());
    e.size = DecodeFixed64(in.data() + 8);
    in.remove_prefix(16);
    table->index_.push_back(std::move(e));
  }

  table->file_ = std::move(file);
  *reader = std::move(table);
  return Status::OK();
}

TableReader::~TableReader() {
  // Purge this file's blocks so a deleted table's bytes leave the shared
  // cache with the reader instead of lingering until LRU pressure. Keys
  // never read are simply absent — Erase of a missing key is a cheap
  // no-op. Blocks still pinned by in-flight readers survive until their
  // BlockRefs drop (refcount), they just become unreachable.
  if (cache_options_.block_cache != nullptr) {
    char buf[kBlockCacheKeySize];
    for (size_t i = 0; i < index_.size(); ++i) {
      cache_options_.block_cache->Erase(BlockCacheKey(cache_options_.cache_id, i, buf));
    }
  }
}

Status TableReader::ReadBlockFromFile(size_t i, std::string* out) const {
  const IndexEntry& e = index_[i];
  out->resize(e.size + kBlockCrcSize);
  Slice result;
  Status s = file_->Read(e.offset, e.size + kBlockCrcSize, &result, out->data());
  if (!s.ok()) {
    return s;
  }
  if (result.size() != e.size + kBlockCrcSize) {
    return Status::Corruption("truncated data block");
  }
  if (result.data() != out->data()) {
    memcpy(out->data(), result.data(), result.size());
  }
  const uint32_t stored = crc32c::Unmask(DecodeFixed32(out->data() + e.size));
  const uint32_t actual = crc32c::Value(out->data(), e.size);
  if (stored != actual) {
    return Status::Corruption("data block checksum mismatch");
  }
  out->resize(e.size);
  return Status::OK();
}

Status TableReader::ReadBlock(size_t i, BlockRef* out, bool fill_cache) const {
  out->Reset();
  ShardedLruCache* cache = cache_options_.block_cache;
  ShardedLruCache::Handle* handle = nullptr;
  if (cache != nullptr) {
    char buf[kBlockCacheKeySize];
    const Slice key = BlockCacheKey(cache_options_.cache_id, i, buf);
    handle = cache->Lookup(key);
    if (handle == nullptr && fill_cache) {
      auto block = std::make_unique<std::string>();
      Status s = ReadBlockFromFile(i, block.get());
      if (!s.ok()) {
        return s;
      }
      // Two racing misses both insert; the second replaces the first,
      // whose pinned readers stay valid via their handles. Charge the
      // block's payload bytes.
      handle = cache->Insert(key, block.get(), block->size(), &DeleteCachedBlock);
      block.release();  // owned by the cache entry now
    }
  }
  if (handle != nullptr) {
    out->pin_ = CacheHandleGuard(cache, handle);
    out->data_ = Slice(*static_cast<const std::string*>(cache->Value(handle)));
    return Status::OK();
  }
  // No cache attached, or a no-fill miss: local copy.
  Status s = ReadBlockFromFile(i, &out->owned_);
  if (!s.ok()) {
    return s;
  }
  out->data_ = Slice(out->owned_);
  return Status::OK();
}

size_t TableReader::FindBlock(const Slice& key) const {
  // Binary search for the first block whose last_key >= key.
  size_t lo = 0;
  size_t hi = index_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Slice(index_[mid].last_key).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status TableReader::Get(const Slice& key, std::string* value, uint64_t* seq,
                        ValueType* type) const {
  if (!filter_.empty() && !bloom_.KeyMayMatch(key, Slice(filter_))) {
    return Status::NotFound();
  }
  const size_t block = FindBlock(key);
  if (block >= index_.size()) {
    return Status::NotFound();
  }
  BlockRef ref;
  Status s = ReadBlock(block, &ref);
  if (!s.ok()) {
    return s;
  }
  const char* p = ref.data().data();
  const char* limit = p + ref.data().size();
  while (p < limit) {
    Slice k, v;
    uint64_t entry_seq;
    ValueType entry_type;
    p = ParseTableEntry(p, limit, &k, &entry_seq, &entry_type, &v);
    if (p == nullptr) {
      return Status::Corruption("malformed table entry");
    }
    const int cmp = k.compare(key);
    if (cmp == 0) {
      if (value != nullptr) {
        value->assign(v.data(), v.size());
      }
      if (seq != nullptr) {
        *seq = entry_seq;
      }
      if (type != nullptr) {
        *type = entry_type;
      }
      return Status::OK();
    }
    if (cmp > 0) {
      break;  // sorted: key not present
    }
  }
  return Status::NotFound();
}

// Iterates blocks sequentially, parsing entries in place. Holds a pinned
// ref on the current block, so eviction under the iterator is safe.
class TableReader::Iter final : public Iterator {
 public:
  Iter(const TableReader* table, bool fill_cache) : table_(table), fill_cache_(fill_cache) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    block_index_ = 0;
    LoadBlockAndScanTo(Slice());
  }

  void Seek(const Slice& target) override {
    block_index_ = table_->FindBlock(target);
    LoadBlockAndScanTo(target);
  }

  void Next() override {
    ParseOne();
    if (!valid_ && status_.ok()) {
      // Block exhausted; advance to the next block.
      ++block_index_;
      LoadBlockAndScanTo(Slice());
    }
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }
  uint64_t seq() const override { return seq_; }
  ValueType type() const override { return type_; }
  Status status() const override { return status_; }

 private:
  // Loads block_index_ and positions at the first entry with key >= target
  // (empty target = first entry). Walks forward across blocks if needed.
  void LoadBlockAndScanTo(const Slice& target) {
    valid_ = false;
    while (block_index_ < table_->index_.size()) {
      status_ = table_->ReadBlock(block_index_, &block_, fill_cache_);
      if (!status_.ok()) {
        return;
      }
      pos_ = block_.data().data();
      limit_ = pos_ + block_.data().size();
      ParseOne();
      while (valid_ && !target.empty() && key_.compare(target) < 0) {
        ParseOne();
      }
      if (valid_) {
        return;
      }
      ++block_index_;
    }
  }

  void ParseOne() {
    if (pos_ == nullptr || pos_ >= limit_) {
      valid_ = false;
      return;
    }
    pos_ = ParseTableEntry(pos_, limit_, &key_, &seq_, &type_, &value_);
    if (pos_ == nullptr) {
      valid_ = false;
      status_ = Status::Corruption("malformed table entry in iterator");
      return;
    }
    valid_ = true;
  }

  const TableReader* const table_;
  const bool fill_cache_;
  size_t block_index_ = 0;
  BlockRef block_;
  const char* pos_ = nullptr;
  const char* limit_ = nullptr;
  bool valid_ = false;
  Slice key_, value_;
  uint64_t seq_ = 0;
  ValueType type_ = ValueType::kValue;
  Status status_;
};

std::unique_ptr<Iterator> TableReader::NewIterator(bool fill_cache) const {
  return std::make_unique<Iter>(this, fill_cache);
}

}  // namespace flodb
