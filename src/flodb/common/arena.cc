#include "flodb/common/arena.h"

#include <cstdlib>
#include <cstdio>
#include <new>

namespace flodb {

namespace {

constexpr size_t kAlignment = 8;

inline size_t AlignUp(size_t n) { return (n + kAlignment - 1) & ~(kAlignment - 1); }

}  // namespace

ConcurrentArena::ConcurrentArena(size_t block_bytes) : block_bytes_(AlignUp(block_bytes)) {}

ConcurrentArena::~ConcurrentArena() {
  for (const Block& b : blocks_) {
    free(b.data);
  }
}

void ConcurrentArena::Reset() {
  MutexLock lock(blocks_mu_);
  for (const Block& b : blocks_) {
    free(b.data);
  }
  blocks_.clear();
  cur_block_.store(nullptr, std::memory_order_release);
  cur_size_.store(0, std::memory_order_release);
  cur_offset_.store(0, std::memory_order_release);
  allocated_.store(0, std::memory_order_relaxed);
  reserved_.store(0, std::memory_order_relaxed);
}

char* ConcurrentArena::Allocate(size_t n) {
  n = AlignUp(n);
  // Fast path: bump the offset of the current block. A generation counter
  // (stored in the low bit pattern of cur_size_ changes) is unnecessary:
  // we re-validate by reloading the block pointer after the bump; if a
  // switch raced with us we retry. A stale fetch_add can only waste bytes
  // of the new block, never alias storage, because offsets are monotone
  // within a block's lifetime and the block pointer is reloaded.
  for (int attempt = 0; attempt < 4; ++attempt) {
    char* blk = cur_block_.load(std::memory_order_acquire);
    if (blk == nullptr) {
      break;
    }
    size_t size = cur_size_.load(std::memory_order_acquire);
    size_t off = cur_offset_.fetch_add(n, std::memory_order_relaxed);
    if (off + n <= size && blk == cur_block_.load(std::memory_order_acquire)) {
      allocated_.fetch_add(n, std::memory_order_relaxed);
      return blk + off;
    }
  }
  return AllocateSlow(n);
}

char* ConcurrentArena::AllocateSlow(size_t n) {
  MutexLock lock(blocks_mu_);
  // Re-check: another thread may have installed a fresh block already.
  {
    char* blk = cur_block_.load(std::memory_order_acquire);
    if (blk != nullptr) {
      size_t size = cur_size_.load(std::memory_order_acquire);
      size_t off = cur_offset_.fetch_add(n, std::memory_order_relaxed);
      if (off + n <= size) {
        allocated_.fetch_add(n, std::memory_order_relaxed);
        return blk + off;
      }
    }
  }

  // Oversized requests get a dedicated block; the current block stays.
  if (n > block_bytes_ / 2) {
    char* data = static_cast<char*>(malloc(n));
    if (data == nullptr) {
      fprintf(stderr, "flodb: arena out of memory (%zu bytes)\n", n);
      abort();
    }
    blocks_.push_back(Block{data, n});
    reserved_.fetch_add(n, std::memory_order_relaxed);
    allocated_.fetch_add(n, std::memory_order_relaxed);
    return data;
  }

  char* data = static_cast<char*>(malloc(block_bytes_));
  if (data == nullptr) {
    fprintf(stderr, "flodb: arena out of memory (%zu bytes)\n", block_bytes_);
    abort();
  }
  blocks_.push_back(Block{data, block_bytes_});
  reserved_.fetch_add(block_bytes_, std::memory_order_relaxed);

  // Publish order matters: make the new block unreachable via the fast
  // path until its size/offset are consistent. We first invalidate the
  // pointer, then set size and offset, then publish.
  cur_block_.store(nullptr, std::memory_order_release);
  cur_size_.store(block_bytes_, std::memory_order_release);
  cur_offset_.store(n, std::memory_order_release);
  cur_block_.store(data, std::memory_order_release);

  allocated_.fetch_add(n, std::memory_order_relaxed);
  return data;
}

}  // namespace flodb
