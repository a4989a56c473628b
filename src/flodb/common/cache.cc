#include "flodb/common/cache.h"

#include <cassert>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "flodb/common/hash.h"
#include "flodb/common/synchronization.h"

namespace flodb {

// One cache entry. An entry lives in at most one of its shard's two
// intrusive lists:
//  * lru_    — resident, no outstanding handles (evictable, LRU order);
//  * in_use_ — resident, pinned by at least one handle;
// or in neither (detached): evicted/erased while pinned, kept alive by
// its remaining handles and freed on the last Release.
//
// refs counts the outstanding handles plus one for cache residency, so
// the lists are derivable: in_cache && refs == 1 <=> lru_, in_cache &&
// refs > 1 <=> in_use_.
struct ShardedLruCache::LRUHandle {
  void* value = nullptr;
  void (*deleter)(const Slice&, void*) = nullptr;
  LRUHandle* next = nullptr;
  LRUHandle* prev = nullptr;
  size_t charge = 0;
  uint32_t refs = 0;
  bool in_cache = false;
  std::string key;
};

// Heterogeneous string hashing so Lookup/Erase probe with a
// string_view over the caller's Slice instead of materializing a
// std::string per call (the block-cache Lookup is the hottest read-path
// operation in the store).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};

struct ShardedLruCache::Shard {
  mutable SpinLock mu;
  size_t capacity = 0;  // set once at construction, read-only afterwards
  size_t usage GUARDED_BY(mu) = 0;         // charge of resident entries
  size_t pinned_usage GUARDED_BY(mu) = 0;  // charge of entries with outstanding handles
  uint64_t hits GUARDED_BY(mu) = 0;
  uint64_t misses GUARDED_BY(mu) = 0;
  uint64_t evictions GUARDED_BY(mu) = 0;
  std::unordered_map<std::string, LRUHandle*, TransparentStringHash, std::equal_to<>> table
      GUARDED_BY(mu);
  // Dummy heads of the circular lists.
  LRUHandle lru GUARDED_BY(mu);
  LRUHandle in_use GUARDED_BY(mu);

  Shard() {
    lru.next = &lru;
    lru.prev = &lru;
    in_use.next = &in_use;
    in_use.prev = &in_use;
  }

  static void ListRemove(LRUHandle* e) {
    e->next->prev = e->prev;
    e->prev->next = e->next;
    e->next = nullptr;
    e->prev = nullptr;
  }

  static void ListAppend(LRUHandle* list, LRUHandle* e) {
    // Newest entries go just before the dummy head; list->next is oldest.
    e->next = list;
    e->prev = list->prev;
    e->prev->next = e;
    e->next->prev = e;
  }

  // Detaches `e` from the table's perspective (list + residency charge)
  // and drops the cache's own reference. Appends to `garbage` if that was
  // the last reference. REQUIRES: e->in_cache.
  void FinishErase(LRUHandle* e, std::vector<LRUHandle*>* garbage) REQUIRES(mu) {
    assert(e->in_cache);
    ListRemove(e);
    e->in_cache = false;
    usage -= e->charge;
    if (--e->refs == 0) {
      garbage->push_back(e);
    }
  }

  // Evicts oldest unpinned entries until usage fits.
  void EvictLocked(std::vector<LRUHandle*>* garbage) REQUIRES(mu) {
    while (usage > capacity && lru.next != &lru) {
      LRUHandle* oldest = lru.next;
      table.erase(oldest->key);
      FinishErase(oldest, garbage);
      ++evictions;
    }
  }

  // Runs deleters outside the shard lock: a deleter may be arbitrarily
  // expensive, and holding a spinlock across it would stall every reader
  // on the shard.
  static void RunDeleters(const std::vector<LRUHandle*>& garbage) {
    for (LRUHandle* e : garbage) {
      (*e->deleter)(Slice(e->key), e->value);
      delete e;
    }
  }
};

ShardedLruCache::ShardedLruCache(size_t capacity)
    : capacity_(capacity), shards_(new Shard[kNumShards]) {
  // Distribute capacity exactly: floor per shard, with the remainder
  // spread one unit each over the first shards, so the shard capacities
  // sum to the configured total (the aggregate bound is never inflated
  // by rounding).
  const size_t shards = kNumShards;
  const size_t base = capacity / shards;
  const size_t remainder = capacity % shards;
  for (size_t i = 0; i < shards; ++i) {
    shards_[i].capacity = base + (i < remainder ? 1 : 0);
  }
}

ShardedLruCache::~ShardedLruCache() {
  std::vector<LRUHandle*> garbage;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    // No callers may hold handles at destruction time; every resident
    // entry therefore sits in lru_ with only the cache's reference.
    assert(shard.in_use.next == &shard.in_use);
    for (LRUHandle* e = shard.lru.next; e != &shard.lru;) {
      LRUHandle* next = e->next;
      assert(e->refs == 1);
      garbage.push_back(e);
      e = next;
    }
  }
  Shard::RunDeleters(garbage);
  delete[] shards_;
}

size_t ShardedLruCache::ShardOf(const Slice& key) const {
  // Seeded differently from the Membuffer/bloom consumers so shard
  // placement decorrelates from every other hash user of the same key.
  return Hash64(key, /*seed=*/0xcac4eb10cULL) & static_cast<uint64_t>(kNumShards - 1);
}

ShardedLruCache::Handle* ShardedLruCache::Insert(const Slice& key, void* value, size_t charge,
                                                 void (*deleter)(const Slice&, void*)) {
  auto* e = new LRUHandle();
  e->value = value;
  e->deleter = deleter;
  e->charge = charge;
  e->key.assign(key.data(), key.size());
  e->refs = 1;  // the returned handle

  if (capacity_ == 0) {
    // Pass-through mode: hand the caller a self-owned pinned entry and
    // never retain it. pinned_usage still tracks it so "bytes pinned by
    // in-flight readers" stays observable with the cache disabled.
    Shard& shard = shards_[ShardOf(key)];
    SpinLockHolder guard(shard.mu);
    shard.pinned_usage += charge;
    return reinterpret_cast<Handle*>(e);
  }

  std::vector<LRUHandle*> garbage;
  Shard& shard = shards_[ShardOf(key)];
  {
    SpinLockHolder guard(shard.mu);
    e->refs++;  // the cache's reference
    e->in_cache = true;
    shard.usage += charge;
    shard.pinned_usage += charge;
    Shard::ListAppend(&shard.in_use, e);
    auto [it, inserted] = shard.table.try_emplace(e->key, e);
    if (!inserted) {
      // Replace: the old entry leaves the table; its pinned readers (if
      // any) keep it alive until their Releases.
      shard.FinishErase(it->second, &garbage);
      it->second = e;
    }
    shard.EvictLocked(&garbage);
  }
  Shard::RunDeleters(garbage);
  return reinterpret_cast<Handle*>(e);
}

ShardedLruCache::Handle* ShardedLruCache::Lookup(const Slice& key) {
  Shard& shard = shards_[ShardOf(key)];
  SpinLockHolder guard(shard.mu);
  auto it = shard.table.find(std::string_view(key.data(), key.size()));
  if (it == shard.table.end()) {
    ++shard.misses;
    return nullptr;
  }
  LRUHandle* e = it->second;
  if (e->refs == 1) {
    // First pin: promote from the evictable list.
    Shard::ListRemove(e);
    Shard::ListAppend(&shard.in_use, e);
    shard.pinned_usage += e->charge;
  }
  e->refs++;
  ++shard.hits;
  return reinterpret_cast<Handle*>(e);
}

void* ShardedLruCache::Value(Handle* handle) const {
  return reinterpret_cast<LRUHandle*>(handle)->value;
}

void ShardedLruCache::Release(Handle* handle) {
  LRUHandle* e = reinterpret_cast<LRUHandle*>(handle);
  Shard& shard = shards_[ShardOf(Slice(e->key))];
  std::vector<LRUHandle*> garbage;
  {
    SpinLockHolder guard(shard.mu);
    assert(e->refs > 0);
    e->refs--;
    if (e->refs == 0) {
      // Last handle on a detached (evicted/erased/pass-through) entry.
      shard.pinned_usage -= e->charge;
      garbage.push_back(e);
    } else if (e->in_cache && e->refs == 1) {
      // Last handle on a resident entry: demote to the evictable list,
      // then honor capacity immediately rather than waiting for the next
      // Insert (iterators pin blocks across whole scans; this keeps the
      // bound tight).
      Shard::ListRemove(e);
      Shard::ListAppend(&shard.lru, e);
      shard.pinned_usage -= e->charge;
      shard.EvictLocked(&garbage);
    }
  }
  Shard::RunDeleters(garbage);
}

void ShardedLruCache::Erase(const Slice& key) {
  Shard& shard = shards_[ShardOf(key)];
  std::vector<LRUHandle*> garbage;
  {
    SpinLockHolder guard(shard.mu);
    auto it = shard.table.find(std::string_view(key.data(), key.size()));
    if (it == shard.table.end()) {
      return;
    }
    LRUHandle* e = it->second;
    shard.table.erase(it);
    shard.FinishErase(e, &garbage);
  }
  Shard::RunDeleters(garbage);
}

size_t ShardedLruCache::TotalCharge() const {
  size_t total = 0;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    SpinLockHolder guard(shard.mu);
    total += shard.usage;
  }
  return total;
}

size_t ShardedLruCache::TotalEntries() const {
  size_t total = 0;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    SpinLockHolder guard(shard.mu);
    total += shard.table.size();
  }
  return total;
}

size_t ShardedLruCache::ShardCharge(size_t shard) const {
  Shard& s = shards_[shard];
  SpinLockHolder guard(s.mu);
  return s.usage;
}

ShardedLruCache::Stats ShardedLruCache::GetStats() const {
  Stats stats;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    SpinLockHolder guard(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.charge += shard.usage;
    stats.pinned_charge += shard.pinned_usage;
    stats.entries += shard.table.size();
  }
  return stats;
}

}  // namespace flodb
