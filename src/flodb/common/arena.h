// ConcurrentArena: a thread-safe bump allocator.
//
// Memtables and Membuffers allocate nodes, value cells and records from an
// arena and never free them individually; the whole arena is released when
// the component is retired or reset (after an RCU grace period).
// Allocation is a single fetch_add on the current block in the common
// case; a spinlock is taken only to chain a new block.

#ifndef FLODB_COMMON_ARENA_H_
#define FLODB_COMMON_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "flodb/common/synchronization.h"

namespace flodb {

class ConcurrentArena {
 public:
  explicit ConcurrentArena(size_t block_bytes = 1u << 20);

  ConcurrentArena(const ConcurrentArena&) = delete;
  ConcurrentArena& operator=(const ConcurrentArena&) = delete;

  ~ConcurrentArena();

  // Returns naturally-aligned (8B) storage for n bytes. Never returns
  // nullptr; aborts on OOM (consistent with the no-exceptions policy).
  char* Allocate(size_t n);

  // Frees every block; the arena is empty and usable afterwards. Not
  // safe against concurrent Allocate calls, and every pointer handed out
  // before dangles: the owner must hold the only reference.
  void Reset();

  // Total bytes handed out since construction or the last Reset
  // (approximate).
  size_t AllocatedBytes() const { return allocated_.load(std::memory_order_relaxed); }

  // Total bytes reserved from the OS since construction or the last Reset.
  size_t ReservedBytes() const { return reserved_.load(std::memory_order_relaxed); }

 private:
  struct Block {
    char* data;
    size_t size;
  };

  char* AllocateSlow(size_t n);

  const size_t block_bytes_;

  // Current block: pointer + atomically bumped offset.
  std::atomic<char*> cur_block_{nullptr};
  std::atomic<size_t> cur_offset_{0};
  std::atomic<size_t> cur_size_{0};

  Mutex blocks_mu_;
  std::vector<Block> blocks_ GUARDED_BY(blocks_mu_);

  std::atomic<size_t> allocated_{0};
  std::atomic<size_t> reserved_{0};
};

}  // namespace flodb

#endif  // FLODB_COMMON_ARENA_H_
