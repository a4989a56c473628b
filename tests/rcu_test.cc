#include "flodb/sync/rcu.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace flodb {
namespace {

TEST(RcuTest, SynchronizeWithNoReadersReturns) {
  Rcu rcu;
  rcu.Synchronize();
  rcu.Synchronize();
}

TEST(RcuTest, ReadLockUnlockNested) {
  Rcu rcu;
  EXPECT_FALSE(rcu.InReadSection());
  rcu.ReadLock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadLock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_FALSE(rcu.InReadSection());
}

TEST(RcuTest, SynchronizeWaitsForActiveReader) {
  Rcu rcu;
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> sync_done{false};

  std::thread reader([&] {
    rcu.ReadLock();
    reader_in.store(true);
    while (!reader_release.load()) {
      std::this_thread::yield();
    }
    rcu.ReadUnlock();
  });

  while (!reader_in.load()) {
    std::this_thread::yield();
  }
  std::thread syncer([&] {
    rcu.Synchronize();
    sync_done.store(true);
  });

  // Synchronize must NOT complete while the reader is inside.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(sync_done.load());

  reader_release.store(true);
  syncer.join();
  EXPECT_TRUE(sync_done.load());
  reader.join();
}

TEST(RcuTest, SynchronizeDoesNotWaitForLaterReaders) {
  Rcu rcu;
  // A reader that enters after Synchronize starts must not be waited on
  // indefinitely: here we just check that back-to-back sync+read patterns
  // never wedge.
  for (int i = 0; i < 100; ++i) {
    std::thread reader([&] {
      RcuReadGuard guard(rcu);
      std::this_thread::yield();
    });
    rcu.Synchronize();
    reader.join();
  }
}

TEST(RcuTest, PointerReclamationPattern) {
  // The canonical usage: swap a pointer, synchronize, free the old value.
  // Readers must never observe freed memory (checked via a live flag).
  struct Node {
    std::atomic<bool> alive{true};
    int value = 0;
  };
  Rcu rcu;
  std::atomic<Node*> ptr{new Node{}};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        RcuReadGuard guard(rcu);
        Node* n = ptr.load(std::memory_order_seq_cst);
        ASSERT_TRUE(n->alive.load(std::memory_order_relaxed));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Keep swapping until readers have observably run (single-core hosts
  // may not schedule them immediately), bounded to stay finite.
  for (int i = 0; i < 200 || (reads.load() == 0 && i < 2'000'000); ++i) {
    Node* fresh = new Node{};
    fresh->value = i;
    Node* old = ptr.exchange(fresh, std::memory_order_seq_cst);
    rcu.Synchronize();
    old->alive.store(false, std::memory_order_relaxed);
    delete old;
    if ((i & 0xf) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  delete ptr.load();
  EXPECT_GT(reads.load(), 0u);
}

TEST(RcuTest, ManyShortLivedThreadsRecycleSlots) {
  Rcu rcu;
  // More threads over time than kMaxThreads — slot recycling must work.
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 32; ++t) {
      threads.emplace_back([&] {
        RcuReadGuard guard(rcu);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  rcu.Synchronize();
}

TEST(RcuTest, TwoIndependentDomains) {
  Rcu a, b;
  a.ReadLock();
  // A reader in domain A must not block domain B's grace period.
  b.Synchronize();
  a.ReadUnlock();
  a.Synchronize();
}

TEST(RcuTest, ConcurrentSynchronizersDoNotDeadlock) {
  Rcu rcu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        RcuReadGuard guard(rcu);
      }
      for (int i = 0; i < 50; ++i) {
        rcu.Synchronize();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
}

// A store open/close leaves a destroyed domain behind. A thread that has
// used many of them must not keep one entry per dead domain: every read
// section scans the list, so it would slow down for good.
TEST(RcuTest, DestroyedDomainsLeaveNoThreadEntries) {
  size_t entries = 0;
  std::thread user([&] {
    Rcu live;
    RcuReadGuard outer(live);
    for (int i = 0; i < 10000; ++i) {
      auto dead = std::make_unique<Rcu>();
      RcuReadGuard guard(*dead);
    }
    entries = Rcu::ThreadEntriesForTesting();
  });
  user.join();
  EXPECT_LE(entries, 2u) << "one live domain, plus at most the last destroyed one";
}

}  // namespace
}  // namespace flodb
