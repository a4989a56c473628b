#include "flodb/mem/skiplist.h"

#include <cassert>
#include <cstring>

namespace flodb {

// Node layout in the arena:
//   [Node header][next[0..top_level] atomics][key bytes]
// The flexible parts live directly after the header so one allocation
// covers the whole node; nodes are immutable after linking except for the
// cell pointer and the next[] links.
struct ConcurrentSkipList::Node {
  std::atomic<ValueCell*> cell;
  uint32_t key_size;
  int32_t top_level;  // highest valid index into next[]

  std::atomic<Node*>* next_array() {
    return reinterpret_cast<std::atomic<Node*>*>(reinterpret_cast<char*>(this) + sizeof(Node));
  }
  const std::atomic<Node*>* next_array() const {
    return reinterpret_cast<const std::atomic<Node*>*>(reinterpret_cast<const char*>(this) +
                                                       sizeof(Node));
  }

  std::atomic<Node*>& next(int level) { return next_array()[level]; }
  const std::atomic<Node*>& next(int level) const { return next_array()[level]; }

  Slice key() const {
    const char* base = reinterpret_cast<const char*>(this) + sizeof(Node) +
                       static_cast<size_t>(top_level + 1) * sizeof(std::atomic<Node*>);
    return Slice(base, key_size);
  }

  char* mutable_key_base() {
    return reinterpret_cast<char*>(this) + sizeof(Node) +
           static_cast<size_t>(top_level + 1) * sizeof(std::atomic<Node*>);
  }
};

ConcurrentSkipList::ConcurrentSkipList(ConcurrentArena* arena, uint64_t level_seed,
                                       KeyComparator cmp)
    : arena_(arena), cmp_(cmp), level_seed_(level_seed) {
  head_ = MakeNode(Slice(), nullptr, kMaxLevel - 1);
  for (int i = 0; i < kMaxLevel; ++i) {
    head_->next(i).store(nullptr, std::memory_order_relaxed);
  }
}

ValueCell* ConcurrentSkipList::MakeCell(const Slice& value, uint64_t seq, ValueType type) {
  char* mem = arena_->Allocate(sizeof(ValueCell) + value.size());
  auto* cell = new (mem) ValueCell;
  cell->seq = seq;
  cell->value_size = static_cast<uint32_t>(value.size());
  cell->type = type;
  memcpy(mem + sizeof(ValueCell), value.data(), value.size());
  return cell;
}

ConcurrentSkipList::Node* ConcurrentSkipList::MakeNode(const Slice& key, ValueCell* cell,
                                                       int top_level) {
  const size_t bytes = sizeof(Node) +
                       static_cast<size_t>(top_level + 1) * sizeof(std::atomic<Node*>) +
                       key.size();
  char* mem = arena_->Allocate(bytes);
  auto* node = new (mem) Node;
  node->cell.store(cell, std::memory_order_relaxed);
  node->key_size = static_cast<uint32_t>(key.size());
  node->top_level = top_level;
  memcpy(node->mutable_key_base(), key.data(), key.size());
  return node;
}

int ConcurrentSkipList::RandomLevel() {
  // Geometric with p = 1/4, like LevelDB. The seed is a per-list atomic
  // advanced with a relaxed fetch_add: contention here only perturbs the
  // distribution, never correctness.
  uint64_t s = level_seed_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
  uint64_t r = MixU64(s);
  int level = 0;
  while (level < kMaxLevel - 1 && (r & 3) == 0) {
    ++level;
    r >>= 2;
  }
  return level;
}

bool ConcurrentSkipList::FindFromPreds(const Slice& key, Node** preds, Node** succs) const {
  Node* pred = head_;
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    // Multi-insert path reuse (Algorithm 1 lines 5-8): jump directly to
    // the predecessor recorded for the previous (smaller) key if it is
    // further along than our current position. Stored predecessors are
    // always behind `key` because batches are sorted ascending and nodes
    // are never unlinked.
    Node* hint = preds[level];
    if (hint != head_ && hint != pred) {
      if (pred == head_ || Compare(hint->key(), pred->key()) > 0) {
        pred = hint;
      }
    }
    Node* curr = pred->next(level).load(std::memory_order_acquire);
    while (curr != nullptr && Compare(curr->key(), key) < 0) {
      pred = curr;
      curr = curr->next(level).load(std::memory_order_acquire);
    }
    preds[level] = pred;
    succs[level] = curr;
  }
  return succs[0] != nullptr && succs[0]->key() == key;
}

void ConcurrentSkipList::UpdateCellMaxSeq(Node* node, ValueCell* cell) {
  ValueCell* cur = node->cell.load(std::memory_order_acquire);
  while (cur == nullptr || cell->seq > cur->seq) {
    if (node->cell.compare_exchange_weak(cur, cell, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return;
    }
    // cur reloaded by the failed CAS; loop re-checks the seq rule.
  }
  // The new cell lost the max-seq race and is dropped on the floor.
}

bool ConcurrentSkipList::InsertWithPreds(const Slice& key, const Slice& value, uint64_t seq,
                                         ValueType type, Node** preds, Node** succs) {
  ValueCell* cell = MakeCell(value, seq, type);
  bytes_.fetch_add(sizeof(ValueCell) + value.size(), std::memory_order_relaxed);

  Node* node = nullptr;  // lazily created; reused across CAS retries
  while (true) {
    if (FindFromPreds(key, preds, succs)) {
      // Key exists: in-place update keeping the highest sequence number
      // (the SWAP of Algorithm 1 line 28, strengthened to max-seq so
      // racing drains can never roll a key back; see DESIGN.md §5).
      UpdateCellMaxSeq(succs[0], cell);
      return false;
    }
    if (node == nullptr) {
      node = MakeNode(key, cell, RandomLevel());
    }
    for (int lvl = 0; lvl <= node->top_level; ++lvl) {
      node->next(lvl).store(succs[lvl], std::memory_order_relaxed);
    }
    Node* expected = succs[0];
    if (!preds[0]->next(0).compare_exchange_strong(expected, node, std::memory_order_release,
                                                   std::memory_order_relaxed)) {
      continue;  // level-0 race; re-find and retry (may turn into update)
    }
    // Node is linked (visible) once level 0 CAS succeeds. Link the tower.
    for (int lvl = 1; lvl <= node->top_level; ++lvl) {
      while (true) {
        Node* expect = succs[lvl];
        if (node->next(lvl).load(std::memory_order_relaxed) != expect) {
          node->next(lvl).store(expect, std::memory_order_relaxed);
        }
        if (preds[lvl]->next(lvl).compare_exchange_strong(
                expect, node, std::memory_order_release, std::memory_order_relaxed)) {
          break;
        }
        FindFromPreds(key, preds, succs);
      }
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(sizeof(Node) +
                         static_cast<size_t>(node->top_level + 1) * sizeof(std::atomic<Node*>) +
                         key.size(),
                     std::memory_order_relaxed);
    return true;
  }
}

bool ConcurrentSkipList::Insert(const Slice& key, const Slice& value, uint64_t seq,
                                ValueType type) {
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  for (int i = 0; i < kMaxLevel; ++i) {
    preds[i] = head_;
  }
  return InsertWithPreds(key, value, seq, type, preds, succs);
}

size_t ConcurrentSkipList::MultiInsert(std::span<const BatchEntry> entries) {
  Node* preds[kMaxLevel];
  Node* succs[kMaxLevel];
  for (int i = 0; i < kMaxLevel; ++i) {
    preds[i] = head_;
  }
  size_t linked = 0;
#ifndef NDEBUG
  for (size_t i = 1; i < entries.size(); ++i) {
    assert(Compare(entries[i - 1].key, entries[i].key) <= 0 && "batch must be sorted");
  }
#endif
  for (const BatchEntry& e : entries) {
    if (InsertWithPreds(e.key, e.value, e.seq, e.type, preds, succs)) {
      ++linked;
    }
  }
  return linked;
}

bool ConcurrentSkipList::Get(const Slice& key, std::string* value, uint64_t* seq,
                             ValueType* type) const {
  const Node* node = head_;
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    const Node* curr = node->next(level).load(std::memory_order_acquire);
    while (curr != nullptr && Compare(curr->key(), key) < 0) {
      node = curr;
      curr = curr->next(level).load(std::memory_order_acquire);
    }
    if (level == 0) {
      node = curr;
    }
  }
  if (node == nullptr || node->key() != key) {
    return false;
  }
  const ValueCell* cell = node->cell.load(std::memory_order_acquire);
  if (value != nullptr) {
    value->assign(cell->value().data(), cell->value().size());
  }
  if (seq != nullptr) {
    *seq = cell->seq;
  }
  if (type != nullptr) {
    *type = cell->type;
  }
  return true;
}

void ConcurrentSkipList::Iterator::SeekToFirst() {
  node_ = list_->head_->next(0).load(std::memory_order_acquire);
  LoadCell();
}

void ConcurrentSkipList::Iterator::Seek(const Slice& target) {
  const Node* pred = list_->head_;
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    const Node* curr = pred->next(level).load(std::memory_order_acquire);
    while (curr != nullptr && list_->Compare(curr->key(), target) < 0) {
      pred = curr;
      curr = curr->next(level).load(std::memory_order_acquire);
    }
    if (level == 0) {
      node_ = curr;
    }
  }
  LoadCell();
}

void ConcurrentSkipList::Iterator::Next() {
  node_ = node_->next(0).load(std::memory_order_acquire);
  LoadCell();
}

Slice ConcurrentSkipList::Iterator::key() const { return node_->key(); }

void ConcurrentSkipList::Iterator::LoadCell() {
  cell_ = (node_ != nullptr) ? node_->cell.load(std::memory_order_acquire) : nullptr;
}

}  // namespace flodb
