// MemTable: FloDB's bottom in-memory level — a ConcurrentSkipList plus
// ownership of its arena and size accounting against a target size.
//
// A MemTable passes through three phases: ACTIVE (writers and drainers
// insert), IMMUTABLE (swapped out via RCU; persist thread is writing it to
// disk; still readable), RETIRED (after the post-persist grace period the
// whole object, arena included, is freed).

#ifndef FLODB_MEM_MEMTABLE_H_
#define FLODB_MEM_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "flodb/common/arena.h"
#include "flodb/common/slice.h"
#include "flodb/mem/entry.h"
#include "flodb/mem/skiplist.h"

namespace flodb {

class MemTable {
 public:
  explicit MemTable(size_t target_bytes)
      : target_bytes_(target_bytes), arena_(256u << 10), list_(&arena_) {}

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Single insert/update (direct writer path, Algorithm 2 line 20).
  void Add(const Slice& key, const Slice& value, uint64_t seq, ValueType type) {
    list_.Insert(key, value, seq, type);
  }

  // Drain path: sorted batch via the skiplist multi-insert.
  void MultiAdd(std::span<const ConcurrentSkipList::BatchEntry> entries) {
    list_.MultiInsert(entries);
  }

  bool Get(const Slice& key, std::string* value, uint64_t* seq, ValueType* type) const {
    return list_.Get(key, value, seq, type);
  }

  ConcurrentSkipList::Iterator NewIterator() const {
    return ConcurrentSkipList::Iterator(&list_);
  }

  size_t ApproximateBytes() const { return arena_.AllocatedBytes(); }
  size_t Count() const { return list_.Count(); }
  size_t TargetBytes() const { return target_bytes_; }
  bool OverTarget() const { return ApproximateBytes() >= target_bytes_; }

 private:
  const size_t target_bytes_;
  ConcurrentArena arena_;
  ConcurrentSkipList list_;
};

}  // namespace flodb

#endif  // FLODB_MEM_MEMTABLE_H_
