#include "flodb/common/arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace flodb {
namespace {

TEST(ArenaTest, BasicAllocationIsUsable) {
  ConcurrentArena arena;
  char* p = arena.Allocate(64);
  ASSERT_NE(p, nullptr);
  memset(p, 0xab, 64);
  EXPECT_EQ(static_cast<unsigned char>(p[63]), 0xab);
}

TEST(ArenaTest, AllocationsAreAligned) {
  ConcurrentArena arena;
  for (size_t n : {1u, 3u, 7u, 9u, 13u, 100u}) {
    char* p = arena.Allocate(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u) << n;
  }
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  ConcurrentArena arena(4096);
  std::vector<std::pair<char*, size_t>> blocks;
  for (int i = 0; i < 1000; ++i) {
    const size_t n = static_cast<size_t>(i % 40) + 1;
    char* p = arena.Allocate(n);
    memset(p, i & 0xff, n);
    blocks.emplace_back(p, n);
  }
  // Verify every block still holds its fill pattern (no aliasing).
  for (int i = 0; i < 1000; ++i) {
    auto [p, n] = blocks[static_cast<size_t>(i)];
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(p[j]), static_cast<unsigned char>(i & 0xff));
    }
  }
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  ConcurrentArena arena(1024);
  char* big = arena.Allocate(10'000);
  ASSERT_NE(big, nullptr);
  memset(big, 1, 10'000);
  // Small allocations still work afterwards.
  char* small = arena.Allocate(16);
  memset(small, 2, 16);
  EXPECT_EQ(big[9999], 1);
}

TEST(ArenaTest, TracksAllocatedBytes) {
  ConcurrentArena arena;
  EXPECT_EQ(arena.AllocatedBytes(), 0u);
  arena.Allocate(100);
  EXPECT_GE(arena.AllocatedBytes(), 100u);
  EXPECT_GE(arena.ReservedBytes(), arena.AllocatedBytes());
}

TEST(ArenaTest, ResetFreesEverythingAndStaysUsable) {
  ConcurrentArena arena(4096);
  for (int i = 0; i < 100; ++i) {
    memset(arena.Allocate(100), 1, 100);
  }
  memset(arena.Allocate(10'000), 2, 10'000);  // a dedicated block too
  ASSERT_GT(arena.ReservedBytes(), 4096u);
  arena.Reset();
  EXPECT_EQ(arena.AllocatedBytes(), 0u);
  EXPECT_EQ(arena.ReservedBytes(), 0u);
  std::vector<char*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(arena.Allocate(100));
    memset(ptrs.back(), i, 100);
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ptrs[static_cast<size_t>(i)][99], static_cast<char>(i));
  }
  EXPECT_GE(arena.AllocatedBytes(), 100u * 100u);
  EXPECT_GE(arena.ReservedBytes(), arena.AllocatedBytes());
}

TEST(ArenaTest, ConcurrentAllocationsNeverAlias) {
  ConcurrentArena arena(8192);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  std::vector<std::vector<char*>> ptrs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        char* p = arena.Allocate(24);
        // Stamp with a thread-unique pattern.
        memset(p, t + 1, 24);
        ptrs[static_cast<size_t>(t)].push_back(p);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // All pointers distinct and patterns intact.
  std::set<char*> unique;
  for (int t = 0; t < kThreads; ++t) {
    for (char* p : ptrs[static_cast<size_t>(t)]) {
      EXPECT_TRUE(unique.insert(p).second);
      for (int j = 0; j < 24; ++j) {
        ASSERT_EQ(p[j], t + 1);
      }
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace flodb
