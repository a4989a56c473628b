// Epoch-based RCU (read-copy-update) domain.
//
// FloDB switches memory components (Membuffer on scans, Memtable on
// persists) with an RCU pointer swap that never blocks readers or writers
// (paper §4.2): the switcher installs a new component pointer, then calls
// Synchronize() to wait until every operation that might still be using
// the old pointer has finished, and only then reclaims it.
//
// Model: readers (here: *all* user operations, including writers into the
// memory components — "readers" in the RCU sense) wrap component access in
// a ReadGuard. Each registered thread owns a cache-line-sized slot holding
// the global epoch it entered at (0 = quiescent). Synchronize() bumps the
// global epoch and waits for all slots to be quiescent or to have entered
// at the new epoch.
//
// Threads register lazily on first guard and release their slot at thread
// exit, so short-lived benchmark threads recycle slots. A thread's list of
// entered domains drops the destroyed ones whenever it first enters a
// domain, so a long-lived thread that opens and closes many stores keeps
// a short list.

#ifndef FLODB_SYNC_RCU_H_
#define FLODB_SYNC_RCU_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace flodb {

class Rcu {
 public:
  static constexpr int kMaxThreads = 512;

  Rcu();
  ~Rcu();

  Rcu(const Rcu&) = delete;
  Rcu& operator=(const Rcu&) = delete;

  // Enters a read-side critical section. Reentrant (nesting is counted).
  void ReadLock();
  void ReadUnlock();

  // Blocks until every read-side section that was active when this call
  // began has exited. Sections beginning after the call are not waited on.
  void Synchronize();

  // True if the calling thread currently holds a read lock on this domain
  // (debug aid for assertions).
  bool InReadSection() const;

  // Domains the calling thread holds an entry for (test aid).
  static size_t ThreadEntriesForTesting();

 private:
  struct alignas(64) Slot {
    // 0 = quiescent; otherwise the epoch at section entry.
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> in_use{false};
  };

  struct ThreadState;

  Slot* AcquireSlot();
  static ThreadState& LocalState();

  const uint64_t id_;  // unique per live Rcu instance (see registry in rcu.cc)
  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxThreads];
  std::atomic<int> high_water_{0};  // slots [0, high_water_) may be in use
};

// RAII read-side guard.
class RcuReadGuard {
 public:
  explicit RcuReadGuard(Rcu& rcu) : rcu_(rcu) { rcu_.ReadLock(); }
  ~RcuReadGuard() { rcu_.ReadUnlock(); }
  RcuReadGuard(const RcuReadGuard&) = delete;
  RcuReadGuard& operator=(const RcuReadGuard&) = delete;

 private:
  Rcu& rcu_;
};

}  // namespace flodb

#endif  // FLODB_SYNC_RCU_H_
