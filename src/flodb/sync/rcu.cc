#include "flodb/sync/rcu.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>
#include <vector>

#include "flodb/common/synchronization.h"
#include "flodb/sync/backoff.h"

#if defined(__SANITIZE_THREAD__)
#define FLODB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLODB_TSAN 1
#endif
#endif

namespace flodb {

namespace {

// Registry of live Rcu instances, keyed by unique id. A thread releasing
// its cached slots at exit must not touch an Rcu that has already been
// destroyed; the registry makes release conditional on liveness.
Mutex g_live_mu;
std::unordered_set<uint64_t>& LiveSet() {
  static std::unordered_set<uint64_t>* live = new std::unordered_set<uint64_t>();
  return *live;
}
std::atomic<uint64_t> g_next_id{1};

}  // namespace

struct Rcu::ThreadState {
  struct Entry {
    uint64_t id;
    Rcu* rcu;
    Slot* slot;
    int depth;
  };
  std::vector<Entry> entries;

  ~ThreadState() {
    MutexLock lock(g_live_mu);
    for (const Entry& e : entries) {
      if (LiveSet().count(e.id) != 0) {
        e.slot->epoch.store(0, std::memory_order_release);
        e.slot->in_use.store(false, std::memory_order_release);
      }
    }
  }
};

Rcu::Rcu() : id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {
  MutexLock lock(g_live_mu);
  LiveSet().insert(id_);
}

Rcu::~Rcu() {
  MutexLock lock(g_live_mu);
  LiveSet().erase(id_);
}

Rcu::ThreadState& Rcu::LocalState() {
  static thread_local ThreadState state;
  return state;
}

Rcu::Slot* Rcu::AcquireSlot() {
  for (int i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (!slots_[i].in_use.load(std::memory_order_relaxed) &&
        slots_[i].in_use.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      int hw = high_water_.load(std::memory_order_relaxed);
      while (hw < i + 1 &&
             !high_water_.compare_exchange_weak(hw, i + 1, std::memory_order_acq_rel)) {
      }
      return &slots_[i];
    }
  }
  fprintf(stderr, "flodb: Rcu slot pool exhausted (> %d concurrent threads)\n", kMaxThreads);
  abort();
}

void Rcu::ReadLock() {
  ThreadState& ts = LocalState();
  ThreadState::Entry* entry = nullptr;
  for (ThreadState::Entry& e : ts.entries) {
    if (e.id == id_) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    {
      // Slow path: drop the entries of destroyed domains first, or every
      // lookup above would scan one more dead entry per store this
      // thread has used.
      MutexLock lock(g_live_mu);
      std::erase_if(ts.entries, [](const ThreadState::Entry& e) {
        return LiveSet().count(e.id) == 0;
      });
    }
    Slot* slot = AcquireSlot();
    ts.entries.push_back(ThreadState::Entry{id_, this, slot, 0});
    entry = &ts.entries.back();
  }
  if (entry->depth++ == 0) {
    uint64_t epoch = global_epoch_.load(std::memory_order_relaxed);
    // Order the epoch announcement before any component-pointer load the
    // protected section performs (see Synchronize for the pairing).
#if defined(FLODB_TSAN)
    // TSan neither models fences nor compiles them warning-free under
    // gcc (-Wtsan); a seq_cst RMW provides the same StoreLoad ordering
    // and participates in the race detector's happens-before graph.
    entry->slot->epoch.exchange(epoch, std::memory_order_seq_cst);
#else
    entry->slot->epoch.store(epoch, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }
}

void Rcu::ReadUnlock() {
  ThreadState& ts = LocalState();
  for (ThreadState::Entry& e : ts.entries) {
    if (e.id == id_) {
      if (--e.depth == 0) {
        e.slot->epoch.store(0, std::memory_order_release);
      }
      return;
    }
  }
  fprintf(stderr, "flodb: ReadUnlock without matching ReadLock\n");
  abort();
}

bool Rcu::InReadSection() const {
  const ThreadState& ts = LocalState();
  for (const ThreadState::Entry& e : ts.entries) {
    if (e.id == id_) {
      return e.depth > 0;
    }
  }
  return false;
}

size_t Rcu::ThreadEntriesForTesting() { return LocalState().entries.size(); }

void Rcu::Synchronize() {
  // Establish the grace-period boundary: readers that entered at an epoch
  // below `target` must drain; readers entering afterwards observe the new
  // component pointers (the caller swapped them before calling us).
  const uint64_t target = global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  const int hw = high_water_.load(std::memory_order_acquire);
  for (int i = 0; i < hw; ++i) {
    Backoff backoff;
    while (true) {
      uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
      if (e == 0 || e >= target) {
        break;
      }
      backoff.Pause();
    }
  }
}

}  // namespace flodb
