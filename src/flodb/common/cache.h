// ShardedLruCache: the read-path cache shared by the disk component.
//
// A charge-based LRU in the LevelDB Cache mold, split into 16 shards by
// key hash so concurrent readers rarely contend on the same lock; each
// shard is a hash table plus two intrusive lists (evictable LRU order vs
// pinned in-use) under one spinlock. Entries are refcounted: Lookup and
// Insert return pinned handles whose values stay valid — even across
// eviction or Erase — until every handle is Released, so a reader is
// never left holding freed block bytes.
//
// The disk component keeps one instance, the block cache (DESIGN.md §9):
// values are decoded SSTable blocks, charged by byte size, keyed
// (file_number, block_index). Open tables need no cache: each live table
// stays open in the Versions that name it.
//
// A zero-capacity cache degenerates to a pass-through: Lookup always
// misses and Insert hands back a self-owned handle that is freed on
// Release without ever being retained.

#ifndef FLODB_COMMON_CACHE_H_
#define FLODB_COMMON_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "flodb/common/slice.h"

namespace flodb {

class ShardedLruCache {
 public:
  // Opaque pinned-entry token. Every non-null Handle* returned by Insert
  // or Lookup must be passed to Release exactly once.
  struct Handle;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;   // capacity-pressure removals only (not Erase)
    size_t charge = 0;        // resident charge across all shards
    size_t pinned_charge = 0; // charge of entries with outstanding handles
    size_t entries = 0;       // resident entry count
  };

  static constexpr int kNumShards = 16;

  // Capacity distributes exactly across the shards (floor + spread
  // remainder), so the aggregate bound is never inflated.
  explicit ShardedLruCache(size_t capacity);
  ~ShardedLruCache();

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // Inserts a mapping key -> value with the given charge, replacing any
  // existing entry for the key. `deleter` runs exactly once, when the
  // entry is no longer resident AND no handle pins it. Returns a pinned
  // handle to the inserted entry.
  Handle* Insert(const Slice& key, void* value, size_t charge,
                 void (*deleter)(const Slice& key, void* value));

  // Returns a pinned handle on hit, nullptr on miss.
  Handle* Lookup(const Slice& key);

  // Unpins a handle from Insert/Lookup.
  void Release(Handle* handle);

  // The value of a pinned handle.
  void* Value(Handle* handle) const;

  // Drops the entry (if resident). Pinned handles keep their value alive;
  // the deleter runs after the last Release.
  void Erase(const Slice& key);

  size_t capacity() const { return capacity_; }
  size_t TotalCharge() const;
  size_t TotalEntries() const;
  Stats GetStats() const;

  // Shard routing, exposed for distribution tests and diagnostics.
  size_t ShardOf(const Slice& key) const;
  size_t ShardCharge(size_t shard) const;

 private:
  struct LRUHandle;
  struct Shard;

  const size_t capacity_;
  Shard* shards_;  // array of kNumShards
};

// RAII wrapper releasing a handle on scope exit (move-only).
class CacheHandleGuard {
 public:
  CacheHandleGuard() = default;
  CacheHandleGuard(ShardedLruCache* cache, ShardedLruCache::Handle* handle)
      : cache_(cache), handle_(handle) {}
  ~CacheHandleGuard() { Reset(); }

  CacheHandleGuard(CacheHandleGuard&& other) noexcept
      : cache_(other.cache_), handle_(other.handle_) {
    other.cache_ = nullptr;
    other.handle_ = nullptr;
  }
  CacheHandleGuard& operator=(CacheHandleGuard&& other) noexcept {
    if (this != &other) {
      Reset();
      cache_ = other.cache_;
      handle_ = other.handle_;
      other.cache_ = nullptr;
      other.handle_ = nullptr;
    }
    return *this;
  }
  CacheHandleGuard(const CacheHandleGuard&) = delete;
  CacheHandleGuard& operator=(const CacheHandleGuard&) = delete;

  void Reset() {
    if (cache_ != nullptr && handle_ != nullptr) {
      cache_->Release(handle_);
    }
    cache_ = nullptr;
    handle_ = nullptr;
  }

  ShardedLruCache::Handle* handle() const { return handle_; }
  void* value() const { return cache_->Value(handle_); }
  explicit operator bool() const { return handle_ != nullptr; }

 private:
  ShardedLruCache* cache_ = nullptr;
  ShardedLruCache::Handle* handle_ = nullptr;
};

}  // namespace flodb

#endif  // FLODB_COMMON_CACHE_H_
