// ConcurrentSkipList: CAS-linked, insertion-only concurrent skiplist with
// the paper's novel multi-insert operation (Algorithm 1) and in-place
// value updates carrying per-entry sequence numbers.
//
// Deliberate restrictions, straight from the paper (§4.3 "Concurrency"):
// nodes are never unlinked — FloDB retires whole Memtables after they are
// persisted, so the skiplist needs no deletion marks, which is exactly
// what makes multi-insert's path reuse safe.
//
// In-place updates: each node owns an atomic pointer to an immutable
// ValueCell {seq, type, value}. An update allocates a new cell and CASes
// it in only if its sequence number is higher, so concurrent drains and
// direct writers can race without ever regressing a key to older data.
//
// Multi-insert: inserts a sorted batch reusing the predecessor array
// between consecutive keys (FindFromPreds). The closer together the keys,
// the fewer hops re-traversed — the paper's "neighborhood effect" (Fig 8).

#ifndef FLODB_MEM_SKIPLIST_H_
#define FLODB_MEM_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>

#include "flodb/common/arena.h"
#include "flodb/common/random.h"
#include "flodb/common/slice.h"
#include "flodb/mem/entry.h"

namespace flodb {

// Immutable once published; allocated from the skiplist's arena.
struct ValueCell {
  uint64_t seq;
  uint32_t value_size;
  ValueType type;
  // value bytes follow the struct

  Slice value() const { return Slice(reinterpret_cast<const char*>(this + 1), value_size); }
};

class ConcurrentSkipList {
 public:
  static constexpr int kMaxLevel = 16;

  // Three-way key order; nullptr (the default) is raw bytewise
  // Slice::compare. A custom comparator must be a total order that agrees
  // with byte equality (cmp(a, b) == 0 iff a and b are byte-identical) —
  // the baseline stores use this to compare (user_key, ~seq) internal
  // keys as two parts, which raw bytes get wrong for variable-length
  // user keys ("x" vs "x\0y").
  using KeyComparator = int (*)(const Slice& a, const Slice& b);

  // One entry of a multi-insert batch. Keys need not be owned beyond the
  // call; bytes are copied into the arena.
  struct BatchEntry {
    Slice key;
    Slice value;
    ValueType type;
    uint64_t seq;
  };

  struct Node;

  explicit ConcurrentSkipList(ConcurrentArena* arena, uint64_t level_seed = 0x5eed,
                              KeyComparator cmp = nullptr);

  ConcurrentSkipList(const ConcurrentSkipList&) = delete;
  ConcurrentSkipList& operator=(const ConcurrentSkipList&) = delete;

  // Inserts or updates one entry. Returns true if a new node was linked,
  // false if an existing node's value cell was updated (or the update lost
  // to a concurrent higher-seq value, which is equivalent for callers).
  bool Insert(const Slice& key, const Slice& value, uint64_t seq, ValueType type);

  // Inserts a batch. `entries` MUST be sorted by key ascending (duplicate
  // keys allowed; later entries overwrite via the seq rule). Returns the
  // number of newly linked nodes.
  size_t MultiInsert(std::span<const BatchEntry> entries);

  // Point lookup. On hit fills *value/*seq/*type and returns true.
  bool Get(const Slice& key, std::string* value, uint64_t* seq, ValueType* type) const;

  // Number of linked nodes / approximate arena bytes consumed by this list.
  size_t Count() const { return count_.load(std::memory_order_relaxed); }
  size_t ApproximateBytes() const { return bytes_.load(std::memory_order_relaxed); }

  // Forward iterator over the level-0 list. Safe under concurrent inserts;
  // reflects some linearizable prefix of them. The skiplist must outlive
  // the iterator.
  class Iterator {
   public:
    explicit Iterator(const ConcurrentSkipList* list) : list_(list) {}

    bool Valid() const { return node_ != nullptr; }
    void SeekToFirst();
    void Seek(const Slice& target);  // first node with key >= target
    void Next();

    Slice key() const;
    // Reads the node's current cell once; value/seq/type are mutually
    // consistent for that read.
    Slice value() const { return cell_->value(); }
    uint64_t seq() const { return cell_->seq; }
    ValueType type() const { return cell_->type; }

   private:
    void LoadCell();

    const ConcurrentSkipList* list_;
    const Node* node_ = nullptr;
    const ValueCell* cell_ = nullptr;
  };

  struct Stats {
    uint64_t multi_insert_calls = 0;
    uint64_t multi_insert_entries = 0;
    uint64_t find_hops = 0;  // level-0 + tower hops walked by finds
  };

 private:
  friend class Iterator;

  int Compare(const Slice& a, const Slice& b) const {
    return cmp_ != nullptr ? cmp_(a, b) : a.compare(b);
  }

  ValueCell* MakeCell(const Slice& value, uint64_t seq, ValueType type);
  Node* MakeNode(const Slice& key, ValueCell* cell, int top_level);
  int RandomLevel();

  // Algorithm 1, FindFromPreds. preds/succs are arrays of kMaxLevel
  // pointers; preds may carry hints from a previous call with a smaller
  // key (multi-insert path reuse). Returns true iff an exact match was
  // found; succs[0] is then the matching node.
  bool FindFromPreds(const Slice& key, Node** preds, Node** succs) const;

  // Inserts one entry given (possibly hinted) preds/succs arrays.
  bool InsertWithPreds(const Slice& key, const Slice& value, uint64_t seq, ValueType type,
                       Node** preds, Node** succs);

  // CAS loop: install cell if its seq is higher than the current one.
  void UpdateCellMaxSeq(Node* node, ValueCell* cell);

  ConcurrentArena* const arena_;
  const KeyComparator cmp_;
  Node* head_;
  std::atomic<size_t> count_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> level_seed_;
};

}  // namespace flodb

#endif  // FLODB_MEM_SKIPLIST_H_
