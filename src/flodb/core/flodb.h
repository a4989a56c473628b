// FloDB: the paper's two-tier LSM memory component on top of the leveled
// disk component.
//
//   Write (batch) -> one WAL record, then one RCU read-side pass: every
//                  entry tries the Membuffer (hash table); spilled
//                  entries multi-insert into the Memtable under one
//                  contiguous seq range. Put/Delete are one-entry batches.
//   Get         -> MBF, IMM_MBF, MTB, IMM_MTB, DISK (freshest-first order);
//                  DISK reads the current Version in the VersionSet's own
//                  RCU read section, with no lock or refcount.
//   Scan        -> master/piggyback protocol: swap + fully drain the
//                  Membuffer, take a scan seq, then iterate
//                  MTB+IMM_MTB+DISK validating entry seqs; bounded
//                  restarts, then a fallback pass. NewScanIterator
//                  streams it in bounded chunks; Scan is one chunk.
//   Draining    -> a background thread moves Membuffer entries into the
//                  Memtable with skiplist multi-inserts. Once the buffer
//                  has stayed empty for about 1 ms it parks; a write that
//                  installs a new entry wakes it.
//   Persisting  -> background thread swaps a full Memtable via RCU and
//                  writes it to the disk component.
//
// Concurrency notes: every user operation runs inside an RCU read-side
// section that pins the component pointers; the background threads swap
// pointers and reclaim after Synchronize(). No user operation ever blocks
// on a global lock.
//
// Consistency: master scans are linearizable with respect to updates;
// piggybacking scans (and piggyback restarts) are serializable (paper
// §4.4 "Correctness"); streaming iterators are serializable per chunk
// (DESIGN.md §4). Get/Put/Delete are linearizable per key, with one
// paper-inherited caveat on racing writers across a Memtable swap
// documented in DESIGN.md §6. Batch commits are durability-atomic but
// not isolation-atomic (DESIGN.md §2).

#ifndef FLODB_CORE_FLODB_H_
#define FLODB_CORE_FLODB_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/common/synchronization.h"
#include "flodb/core/kv_store.h"
#include "flodb/core/options.h"
#include "flodb/disk/wal.h"
#include "flodb/mem/membuffer.h"
#include "flodb/mem/memtable.h"
#include "flodb/sync/rcu.h"

namespace flodb {

class FloDB final : public KVStore {
 public:
  // Opens (and recovers, if WAL/manifest data exists) a FloDB instance.
  static Status Open(const FloDbOptions& options, std::unique_ptr<FloDB>* out);
  ~FloDB() override;

  FloDB(const FloDB&) = delete;
  FloDB& operator=(const FloDB&) = delete;

  // Default-options overloads from the base class stay visible next to
  // the explicit-options overrides below.
  using KVStore::Get;

  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  std::unique_ptr<ScanIterator> NewScanIterator(const ReadOptions& options, const Slice& low_key,
                                                const Slice& high_key) override;
  Status FlushAll() override EXCLUDES(master_mu_);
  Status CompactRange(const Slice& begin, const Slice& end) override;
  StoreStats GetStats() const override;
  std::string Name() const override { return "FloDB"; }

  // ---- introspection for tests and benchmarks ----
  uint64_t CurrentSeq() const { return global_seq_.load(std::memory_order_relaxed); }
  size_t MembufferLiveEntries() const;
  size_t MemtableBytes() const;
  const FloDbOptions& options() const { return options_; }

  // Blocks until the Membuffer has (momentarily) fully drained.
  void WaitUntilDrained();

 private:
  explicit FloDB(const FloDbOptions& options);

  // A batch entry decoded once per Write; slices point into the batch rep.
  struct BatchEntryRef {
    Slice key;
    Slice value;
    ValueType type;
  };

  // ---- background machinery (flodb_background.cc) ----
  void StartBackgroundThreads();
  void StopBackgroundThreads() EXCLUDES(persist_mu_);
  void DrainLoop();
  // Parks the drainer until a write installs a Membuffer entry or the
  // store stops. A 50 ms timed wake retries a broken WAL, then parks
  // again at once if the buffer is still empty.
  void ParkDrainer() EXCLUDES(drain_mu_);
  void WakeDrainer() EXCLUDES(drain_mu_);
  bool ActiveMembufferEmpty();
  void PersistLoop();
  // One unit of cooperative help on the immutable Membuffer; returns true
  // if a chunk was processed.
  bool HelpDrainImmMembuffer();
  // Inserts a collected batch into the Memtable (sort + seq + multi-insert).
  void InsertBatch(std::vector<DrainedEntry>* batch);
  void TriggerPersist();

  // ---- scan machinery (flodb_scan.cc) ----

  // A scan's election result: its snapshot seq and whether it holds the
  // master slot. Masters must EndScan to release the slot.
  struct ScanTicket {
    uint64_t seq = 0;
    bool is_master = false;
  };

  // Master election (Algorithm 3 entry): piggyback on a running scan's
  // published seq, else become the master. For masters this performs the
  // Membuffer swap + full drain and publishes the fresh seq for
  // piggybackers.
  ScanTicket BeginScan() EXCLUDES(scan_mu_);
  void EndScan(const ScanTicket& ticket) EXCLUDES(scan_mu_);
  // Swap + drain + fresh seq + publish — master setup, also used for a
  // full master restart.
  void EstablishMasterSeq(uint64_t* seq) EXCLUDES(master_mu_, scan_mu_);
  // A piggyback restart's fresh seq (no re-drain, §4.4).
  uint64_t FreshScanSeq() {
    return global_seq_.fetch_add(1, std::memory_order_acq_rel);
  }

  // One pass over MTB+IMM_MTB+DISK collecting up to `limit` live entries
  // from `start` (exclusive when `exclusive_start`). Returns true on
  // success, false if a seq violation demands a restart. `validate`
  // disables seq checks for the fallback path. A disk read failure (the
  // merged iterator's status) is a hard error reported through *error
  // (returning true — no restart would fix it).
  bool ScanPass(const Slice& start, const Slice& high_key, size_t limit, uint64_t scan_seq,
                bool validate, bool exclusive_start, std::vector<ScanEntry>* out,
                Status* error);
  // Liveness fallback: briefly freezes Memtable writers, then runs an
  // unvalidated pass.
  Status FallbackPass(const Slice& start, const Slice& high_key, size_t limit,
                      bool exclusive_start, std::vector<ScanEntry>* out);
  // One iterator chunk: validated passes under ticket->seq, restarting
  // with a fresh seq on a violation and falling back after
  // kScanRestartLimit restarts. Only the first chunk (the one
  // starting inclusively at the low bound) runs while the ticket's slot
  // is held, so only it may restart a master with a re-drain.
  Status FetchChunk(ScanTicket* ticket, const Slice& start, bool exclusive,
                    const Slice& high_key, size_t limit, std::vector<ScanEntry>* out);

  MemBuffer* NewMembuffer() const;
  MemTable* NewMemTable() const;

  // Pauses writers' spills and the background drain, swaps in the empty
  // spare Membuffer (allocated at the first swap), fully drains the old one
  // (with help from spilling writers) and uninstalls it. With scan_seq,
  // takes the scan seq while still paused. After a grace period it
  // resumes writers and draining, then resets the old buffer and keeps it
  // as the spare.
  void SwapAndDrainMembufferLocked(uint64_t* scan_seq) REQUIRES(master_mu_);
  bool HelpDrainChunk(MemBuffer* imm);

  // ---- durability pipeline (DESIGN.md §10) ----

  // A committed write's WAL apply token. Destruction releases it, so a
  // write that fails after its commit cannot wedge the persist thread's
  // pre-swap drain.
  struct PendingWrite {
    explicit PendingWrite(GroupCommitLog* log) : wal(log) {}
    PendingWrite(const PendingWrite&) = delete;
    PendingWrite& operator=(const PendingWrite&) = delete;
    ~PendingWrite() {
      if (token_slot >= 0) {
        wal->ReleaseToken(token_slot);
      }
    }

    GroupCommitLog* const wal;
    // -1: no token held.
    int token_slot = -1;
  };

  // Blocks while the Memtable is at its hard cap (2x target). Must run
  // BEFORE the WAL commit: a writer holding an apply token must not block
  // on the persist thread, which waits on that token.
  void WaitForMemtableHeadroom();

  // Applies a logged batch to the memory component (Algorithm 2
  // generalized). Never blocks on Memtable backpressure when holding a
  // token (token_slot >= 0); the caller releases the token afterwards.
  Status ApplyBatchToMemory(const WriteOptions& options, WriteBatch* batch, int token_slot);

  Status RecoverFromWal();
  std::string WalFileName(uint64_t number) const;

  const FloDbOptions options_;
  const size_t memtable_target_bytes_;

  Rcu rcu_;
  std::atomic<uint64_t> global_seq_{1};

  // Component pointers, RCU-protected.
  std::atomic<MemBuffer*> mbf_{nullptr};
  std::atomic<MemBuffer*> imm_mbf_{nullptr};
  std::atomic<MemTable*> mtb_{nullptr};
  std::atomic<MemTable*> imm_mtb_{nullptr};

  std::unique_ptr<DiskComponent> disk_;  // null when persistence disabled

  // Algorithm 2/3 flags.
  std::atomic<bool> pause_writers_{false};
  std::atomic<bool> pause_draining_{false};

  // Helpers may collect from the immutable Membuffer only after the
  // post-swap grace period: a writer that resolved the old buffer before
  // the swap may still be completing an Add into a bucket, and a helper
  // collecting that bucket early would let the write vanish when the
  // buffer is reset.
  std::atomic<bool> imm_mbf_drain_ready_{false};

  // Serializes master scans, rotations and fallback scans. The state it
  // orders (component pointers, pause flags) is atomics published under
  // RCU; only the spare Membuffer is GUARDED_BY it.
  Mutex master_mu_;
  // The reset half of the Membuffer pair between swaps: at most two
  // MemBuffers exist, mbf_ plus imm_mbf_ or this spare. Reachable by no
  // reader, so it is only a plain pointer.
  MemBuffer* spare_mbf_ GUARDED_BY(master_mu_) = nullptr;

  // Scan coordination (piggybacking).
  Mutex scan_mu_;
  CondVar scan_cv_;
  bool master_busy_ GUARDED_BY(scan_mu_) = false;
  bool published_valid_ GUARDED_BY(scan_mu_) = false;
  uint64_t published_seq_ GUARDED_BY(scan_mu_) = 0;
  // Piggybacking scans one published sequence number may serve.
  static constexpr int kPiggybackChainLimit = 8;
  // Validated passes one chunk may fail before it takes the fallback
  // pass. A restart costs a full pass (plus a re-drain for a master), and
  // a fallback briefly freezes Memtable writers. Three keeps a scan
  // racing only a rare in-place update on the cheap path, while a range
  // that writers rewrite faster than it can be read still finishes after
  // a bounded amount of wasted work (DESIGN.md §4).
  static constexpr int kScanRestartLimit = 3;
  int chain_len_ GUARDED_BY(scan_mu_) = 0;
  int running_scans_ GUARDED_BY(scan_mu_) = 0;

  // Persist coordination. The cvs only block/wake; their predicates read
  // atomics (force_persist_, imm_mtb_), so no fields are guarded here.
  Mutex persist_mu_;
  CondVar persist_work_cv_;  // wakes the persist thread
  CondVar persist_done_cv_;  // signals swap completed
  std::atomic<bool> force_persist_{false};

  // WAL (only when options_.enable_wal): the numbered wal-*.log files
  // behind one group-commit queue, which also holds the live writer, the
  // broken status and the apply tokens (DESIGN.md §10).
  GroupCommitLog wal_;

  // Rotated-out logs whose generation has not persisted yet. At each
  // rotation the persist thread collects every log retired up to that
  // epoch boundary here (they are durable once THIS cycle's AddRun
  // succeeds); a log retired mid-epoch — a broken WAL repaired by
  // GroupCommitLog::Repair — waits in the queue's retired list for the NEXT
  // rotation, because its records live in the still-unpersisted current
  // Memtable. Thread-confined to the persist thread, so not lock-guarded.
  std::vector<uint64_t> pending_wal_deletes_;

  // Drainer park/wake (DESIGN.md §1). drainer_parked_ and the active
  // Membuffer's live-entry count are a Dekker pair, seq_cst on both
  // sides: a writer increments the count, then loads the flag; the
  // drainer stores the flag, then re-reads the count. Aligned off the
  // hot fields declared before it: every Add that installs an entry
  // reads it.
  alignas(64) std::atomic<bool> drainer_parked_{false};
  Mutex drain_mu_;  // a leaf: only orders the park against a wake
  CondVar drain_cv_;

  std::thread drain_thread_;  // started only when the Membuffer is enabled
  std::thread persist_thread_;
  std::atomic<bool> stop_{false};

  // Stats.
  mutable std::atomic<uint64_t> puts_{0}, gets_{0}, deletes_{0}, scans_{0};
  mutable std::atomic<uint64_t> batch_writes_{0}, batch_entries_{0};
  mutable std::atomic<uint64_t> wal_batch_records_{0};
  mutable std::atomic<uint64_t> membuffer_adds_{0}, memtable_direct_adds_{0};
  mutable std::atomic<uint64_t> drained_entries_{0};
  mutable std::atomic<uint64_t> scan_restarts_{0}, fallback_scans_{0};
  mutable std::atomic<uint64_t> master_scans_{0}, piggyback_scans_{0};
  mutable std::atomic<uint64_t> membuffer_rotations_{0};
  mutable std::atomic<uint64_t> persist_failures_{0};
  mutable std::atomic<uint64_t> drainer_parks_{0};
};

}  // namespace flodb

#endif  // FLODB_CORE_FLODB_H_
