// TableReader: opens an SSTable, pins its index and bloom filter in
// memory, and serves point lookups and iteration.
//
// Data blocks go through an optional shared block cache keyed by
// (cache_id, block_index): a hit skips the Env read, the CRC pass and
// the copy; a miss inserts the verified block, charged by its byte size.
// Readers hold pinned cache handles (BlockRef) while parsing, so a block
// can never be freed under them by eviction or file deletion. On
// destruction a reader purges every block it may have cached — deleting
// a compacted-away table therefore drops its blocks immediately instead
// of letting them squat in the cache until LRU pressure finds them.

#ifndef FLODB_DISK_TABLE_READER_H_
#define FLODB_DISK_TABLE_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/cache.h"
#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/disk/bloom.h"
#include "flodb/disk/env.h"
#include "flodb/disk/iterator.h"

namespace flodb {

class TableReader {
 public:
  struct Options {
    // Shared block cache; nullptr reads every block straight from Env.
    ShardedLruCache* block_cache = nullptr;
    // Namespaces this file's blocks in the shared cache. The disk
    // component passes the file number (unique, never reused).
    uint64_t cache_id = 0;
  };

  // A read block: either a pinned cache entry or a locally owned copy.
  // data() stays valid until the ref is reset/destroyed, regardless of
  // concurrent cache eviction or Erase.
  class BlockRef {
   public:
    BlockRef() = default;
    ~BlockRef() = default;
    // Neither movable nor copyable: data_ may point into owned_, whose
    // small-string storage would relocate on a move.
    BlockRef(const BlockRef&) = delete;
    BlockRef& operator=(const BlockRef&) = delete;

    Slice data() const { return data_; }
    void Reset() {
      pin_.Reset();
      owned_.clear();
      data_ = Slice();
    }

   private:
    friend class TableReader;
    Slice data_;
    std::string owned_;     // backing storage when uncached
    CacheHandleGuard pin_;  // backing pin when cached
  };

  // Takes ownership of file. On success *reader is ready for lookups.
  static Status Open(std::unique_ptr<RandomAccessFile> file, uint64_t file_size,
                     const Options& options, std::unique_ptr<TableReader>* reader);
  static Status Open(std::unique_ptr<RandomAccessFile> file, uint64_t file_size,
                     std::unique_ptr<TableReader>* reader) {
    return Open(std::move(file), file_size, Options(), reader);
  }

  ~TableReader();

  // Point lookup. Returns OK + outputs on hit, NotFound otherwise.
  Status Get(const Slice& key, std::string* value, uint64_t* seq, ValueType* type) const;

  // Iterates all entries in key order. `fill_cache` false serves hits
  // from the block cache but never inserts misses — for one-shot bulk
  // reads (compaction inputs) that would otherwise flush the hot set
  // out of the cache with blocks about to be deleted anyway.
  std::unique_ptr<Iterator> NewIterator(bool fill_cache = true) const;

  uint64_t NumEntries() const { return num_entries_; }
  size_t NumBlocks() const { return index_.size(); }

  // The shared cache key of this reader's block `block_index`. `buf` must
  // hold kBlockCacheKeySize bytes. Exposed for tests.
  static constexpr size_t kBlockCacheKeySize = 16;
  static Slice BlockCacheKey(uint64_t cache_id, uint64_t block_index, char* buf);

 private:
  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint64_t size;  // payload size, excluding CRC
  };

  class Iter;

  TableReader() = default;

  // Reads the (CRC-verified) block at index position `i`, through the
  // block cache when one is attached. `fill_cache` false skips the
  // insert on a miss (hits are still served).
  Status ReadBlock(size_t i, BlockRef* out, bool fill_cache = true) const;

  // Reads and CRC-verifies the block at index position `i` into *out,
  // bypassing the cache.
  Status ReadBlockFromFile(size_t i, std::string* out) const;

  // First block whose last_key >= key; index_.size() if none.
  size_t FindBlock(const Slice& key) const;

  Options cache_options_;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<IndexEntry> index_;
  std::string filter_;
  BloomFilter bloom_;
  uint64_t num_entries_ = 0;
};

// Parses one entry at `p` (bounded by limit). Returns the position past
// the entry or nullptr on corruption, including a type byte other than
// kValue or kTombstone. Exposed for reuse by the iterator
// and tests.
const char* ParseTableEntry(const char* p, const char* limit, Slice* key, uint64_t* seq,
                            ValueType* type, Slice* value);

}  // namespace flodb

#endif  // FLODB_DISK_TABLE_READER_H_
