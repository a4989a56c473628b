// FloDB background machinery: draining threads (Membuffer -> Memtable,
// Figure 6), the persist thread (Memtable -> disk with RCU switches,
// §4.2), cooperative drain helping, Membuffer rotation, and WAL recovery.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "flodb/core/flodb.h"
#include "flodb/core/memtable_iterator.h"

namespace flodb {

namespace {

constexpr auto kDrainIdleSleep = std::chrono::microseconds(100);
// Entries one drain pass collects from a Membuffer partition.
constexpr size_t kDrainBatch = 64;
constexpr size_t kHelpDrainChunkBuckets = 64;

}  // namespace

void FloDB::StartBackgroundThreads() {
  stop_.store(false, std::memory_order_relaxed);
  if (options_.enable_membuffer) {
    drain_thread_ = std::thread([this] { DrainLoop(); });
  }
  persist_thread_ = std::thread([this] { PersistLoop(); });
}

void FloDB::StopBackgroundThreads() {
  {
    // Under persist_mu_: PersistLoop checks stop_ in its wait predicate,
    // and a store between that check and its sleep would lose the wakeup
    // below and hang the join. (Other triggers repeat; this one does not.)
    MutexLock lock(persist_mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  TriggerPersist();
  if (drain_thread_.joinable()) {
    drain_thread_.join();
  }
  if (persist_thread_.joinable()) {
    persist_thread_.join();
  }
}

void FloDB::TriggerPersist() { persist_work_cv_.Signal(); }

// Sorts, stamps sequence numbers, and inserts a collected batch into the
// active Memtable — the step between "mark" and "remove" of the drain
// protocol. Runs in its own RCU section so the Memtable can't be retired
// from under it, and so that a Membuffer switch (scan) synchronizes after
// the whole batch has landed.
void FloDB::InsertBatch(std::vector<DrainedEntry>* batch) {
  if (batch->empty()) {
    return;
  }
  std::sort(batch->begin(), batch->end(),
            [](const DrainedEntry& a, const DrainedEntry& b) { return a.key < b.key; });

  RcuReadGuard guard(rcu_);
  MemTable* mtb = mtb_.load(std::memory_order_seq_cst);
  if (options_.use_multi_insert) {
    std::vector<ConcurrentSkipList::BatchEntry> entries;
    entries.reserve(batch->size());
    for (DrainedEntry& e : *batch) {
      e.seq = global_seq_.fetch_add(1, std::memory_order_acq_rel);
      entries.push_back(ConcurrentSkipList::BatchEntry{Slice(e.key), Slice(e.value), e.type,
                                                       e.seq});
    }
    mtb->MultiAdd(entries);
  } else {
    for (DrainedEntry& e : *batch) {
      e.seq = global_seq_.fetch_add(1, std::memory_order_acq_rel);
      mtb->Add(Slice(e.key), Slice(e.value), e.seq, e.type);
    }
  }
  drained_entries_.fetch_add(batch->size(), std::memory_order_relaxed);
}

void FloDB::DrainLoop() {
  std::vector<DrainedEntry> batch;
  batch.reserve(kDrainBatch);
  uint64_t empty_passes = 0;

  while (!stop_.load(std::memory_order_relaxed)) {
    // A broken WAL (failed rotation/append/fsync) heals here: each drain
    // cycle retries opening a fresh log so writes resume without waiting
    // for the next Memtable swap. Lock-free no-op when healthy.
    if (options_.enable_wal) {
      wal_.Repair();
    }

    if (pause_draining_.load(std::memory_order_seq_cst)) {
      std::this_thread::sleep_for(kDrainIdleSleep);
      continue;
    }

    // Orphaned-record pressure (in-place updates with changing sizes):
    // rotate the whole buffer. Checked BEFORE Memtable backpressure —
    // rotation bounds Membuffer memory and must not be starved by a
    // persistently full Memtable.
    bool pressure;
    {
      RcuReadGuard guard(rcu_);
      MemBuffer* mbf = mbf_.load(std::memory_order_seq_cst);
      pressure = mbf != nullptr && mbf->UnderMemoryPressure();
    }
    if (pressure) {
      if (master_mu_.try_lock()) {
        SwapAndDrainMembufferLocked(/*scan_seq=*/nullptr);
        membuffer_rotations_.fetch_add(1, std::memory_order_relaxed);
        master_mu_.unlock();
      }
      continue;
    }

    // Respect Memtable backpressure: draining into a full Memtable would
    // defeat the persist throttle.
    bool memtable_full;
    {
      RcuReadGuard guard(rcu_);
      memtable_full = mtb_.load(std::memory_order_seq_cst)->OverTarget();
    }
    if (memtable_full) {
      TriggerPersist();
      std::this_thread::sleep_for(kDrainIdleSleep);
      continue;
    }

    size_t collected = 0;
    uint64_t mbf_partitions = 0;
    {
      RcuReadGuard guard(rcu_);
      MemBuffer* mbf = mbf_.load(std::memory_order_seq_cst);
      // The pause is re-read after the buffer: a swap raises it before
      // installing the new buffer, so a pass that sees the new buffer
      // leaves it alone until the old one is drained and unreadable.
      if (mbf != nullptr && !pause_draining_.load(std::memory_order_seq_cst)) {
        mbf_partitions = mbf->NumPartitions();
        const uint64_t partition = mbf->ClaimPartition();
        collected = mbf->CollectAndMark(partition, kDrainBatch, &batch);
        if (collected > 0) {
          InsertBatch(&batch);
          mbf->FinishDrain(batch);
        }
      }
    }

    batch.clear();
    if (collected == 0) {
      // Nothing drainable in that partition; back off a little once the
      // whole table looks empty, but stay eager: "draining is a
      // continuously ongoing process" (§4.2).
      if (++empty_passes > 2 * mbf_partitions) {
        std::this_thread::sleep_for(kDrainIdleSleep);
        empty_passes = 0;
      }
    } else {
      empty_passes = 0;
    }
  }
}

bool FloDB::HelpDrainChunk(MemBuffer* imm) {
  uint64_t begin, end;
  if (!imm->ClaimBucketRange(kHelpDrainChunkBuckets, &begin, &end)) {
    return false;
  }
  std::vector<DrainedEntry> batch;
  imm->CollectRange(begin, end, &batch);
  InsertBatch(&batch);
  imm->MarkBucketsDone(end - begin);
  return true;
}

bool FloDB::HelpDrainImmMembuffer() {
  RcuReadGuard guard(rcu_);
  if (!imm_mbf_drain_ready_.load(std::memory_order_seq_cst)) {
    return false;  // grace period still running: buckets may still mutate
  }
  MemBuffer* imm = imm_mbf_.load(std::memory_order_seq_cst);
  if (imm == nullptr || imm->FullyDrained()) {
    return false;
  }
  return HelpDrainChunk(imm);
}

void FloDB::SwapAndDrainMembufferLocked(uint64_t* scan_seq) {
  pause_draining_.store(true, std::memory_order_seq_cst);
  pause_writers_.store(true, std::memory_order_seq_cst);
  MemBuffer* old = nullptr;
  if (options_.enable_membuffer) {
    old = mbf_.load(std::memory_order_seq_cst);
    imm_mbf_.store(old, std::memory_order_seq_cst);
    // The pair of §4.1: install the spare, reset by the previous swap.
    // Only the first swap allocates it, so Open pays for one buffer.
    MemBuffer* next =
        spare_mbf_ != nullptr ? std::exchange(spare_mbf_, nullptr) : NewMembuffer();
    mbf_.store(next, std::memory_order_seq_cst);
    // Wait for writers mid-Add on the old buffer (and mid-Add Memtable
    // writers whose seq must precede the scan seq) — the MemBufferRCUWait /
    // MemTableRCUWait pair of Algorithm 3, collapsed into one domain.
    rcu_.Synchronize();
    // The old buffer is now immutable; helpers may collect from it.
    imm_mbf_drain_ready_.store(true, std::memory_order_seq_cst);
    // Drain it completely. Spilling writers help via HelpDrainImmMembuffer.
    while (!old->FullyDrained()) {
      if (!HelpDrainChunk(old)) {
        // All chunks claimed; wait for helpers to finish inserting.
        std::this_thread::yield();
      }
    }
    // Uninstall it while draining and spills are still paused. Reads check
    // IMM_MBF before the Memtable, so while a reader can reach the old
    // buffer, a newer value of one of its keys must not leave the active
    // buffer or spill into the Memtable, or the read returns the old copy.
    imm_mbf_drain_ready_.store(false, std::memory_order_seq_cst);
    imm_mbf_.store(nullptr, std::memory_order_seq_cst);
    rcu_.Synchronize();
  }
  if (scan_seq != nullptr) {
    *scan_seq = FreshScanSeq();
  }
  pause_writers_.store(false, std::memory_order_seq_cst);
  pause_draining_.store(false, std::memory_order_seq_cst);
  if (old != nullptr) {
    old->Reset();  // no reader can reach it any more
    spare_mbf_ = old;
  }
}

void FloDB::PersistLoop() {
  while (true) {
    {
      MutexLock lock(persist_mu_);
      // The predicate reads only atomics, so the lambda needs no guarded
      // state (Clang analyzes lambdas as unannotated functions).
      persist_work_cv_.Await(persist_mu_, [&] {
        if (stop_.load(std::memory_order_relaxed)) {
          return true;
        }
        if (imm_mtb_.load(std::memory_order_seq_cst) != nullptr) {
          return true;  // a failed persist is pending retry below
        }
        MemTable* mtb = mtb_.load(std::memory_order_seq_cst);
        return mtb->OverTarget() ||
               (force_persist_.load(std::memory_order_seq_cst) && mtb->Count() > 0);
      });
    }
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }

    MemTable* old = imm_mtb_.load(std::memory_order_seq_cst);
    if (old == nullptr) {
      // ---- begin a new persist cycle ----
      // 1. Rotate the WAL FIRST — the epoch boundary. Rotating before the
      //    Memtable swap means a record appended to the NEW log can at
      //    worst land in the OLD Memtable (which is about to persist, so
      //    replaying it after a crash is a benign duplicate); the reverse
      //    order would let old-log records land in the new, unpersisted
      //    Memtable and be lost when the old log is deleted.
      int drain_slot = -1;
      if (options_.enable_wal) {
        // Every log retired up to this epoch boundary holds records of
        // generations at or before the one this cycle persists, so it
        // becomes deletable when this cycle's AddRun succeeds. A log
        // retired later (a mid-epoch repair) waits for the next cycle:
        // its records live in the new, unpersisted generation.
        Status s = wal_.Rotate(&drain_slot, &pending_wal_deletes_);
        if (!s.ok()) {
          // The WAL stays broken: Write fails with IOError and the next
          // drain cycle retries the open (GroupCommitLog::Repair).
          fprintf(stderr, "flodb: cannot rotate WAL (writes fail until repaired): %s\n",
                  s.ToString().c_str());
        }
      }

      // 2. Drain the outgoing epoch's writers: everyone acked against the
      //    retired log finishes applying BEFORE the swap, so every record
      //    in a retired log lives in a generation at or before the one we
      //    are about to persist. (Writers holding these tokens are exempt
      //    from Memtable backpressure, so this wait is bounded.)
      if (drain_slot >= 0) {
        while (wal_.TokensOutstanding(drain_slot)) {
          if (stop_.load(std::memory_order_relaxed)) {
            return;
          }
          std::this_thread::yield();
        }
      }

      // 3. Drain the Membuffer into the outgoing Memtable. An acked
      //    record's entry may still be Membuffer-resident — the apply
      //    token only covers its landing in the MEMORY COMPONENT, and
      //    the background drain moves it to the Memtable later, possibly
      //    into a generation AFTER the one whose persist deletes its
      //    log. Forcing the drain here (the FlushAll pattern) pins every
      //    pre-rotation entry into the generation this cycle persists,
      //    which is what makes the retired-log deletion below sound.
      //    WAL-less mode skips this and keeps the paper's fully
      //    decoupled persist.
      if (options_.enable_wal && options_.enable_membuffer) {
        MutexLock master(master_mu_);
        SwapAndDrainMembufferLocked(/*scan_seq=*/nullptr);
      }

      // 4. Switch Memtables: an RCU pointer swap that blocks no one
      //    (§4.2).
      old = mtb_.load(std::memory_order_seq_cst);
      imm_mtb_.store(old, std::memory_order_seq_cst);
      mtb_.store(NewMemTable(), std::memory_order_seq_cst);
      persist_done_cv_.SignalAll();

      // Grace period #1: all pending updates to `old` have completed
      // before we copy it to disk.
      rcu_.Synchronize();
    }
    // else: retrying a previously failed AddRun; `old` stayed installed
    // as imm_mtb_ (still serving reads) and its WAL was retained.

    Status persist_status;
    if (disk_ != nullptr) {
      // Every retired log's records are in `old`, so once it is installed
      // the MANIFEST names the first log past them: recovery then skips
      // a retired log even if deleting it below fails.
      const uint64_t log_number =
          pending_wal_deletes_.empty()
              ? 0
              : *std::max_element(pending_wal_deletes_.begin(), pending_wal_deletes_.end()) + 1;
      MemTableIterator iter(old);
      persist_status = disk_->AddRun(&iter, log_number);
    }
    // else: memory-component-only mode (Figure 17) — drop the data.

    const bool aborted = persist_status.IsAborted();  // shutdown mid-stall
    if (!persist_status.ok() && !aborted) {
      // Satellite fix #2: a failed persist used to delete the old WAL
      // anyway, dropping acknowledged data. Now the Memtable stays
      // installed (readable) for a retry, and every retired log survives
      // for recovery.
      persist_failures_.fetch_add(1, std::memory_order_relaxed);
      fprintf(stderr, "flodb: persist failed (will retry; WAL retained): %s\n",
              persist_status.ToString().c_str());
      MutexLock lock(persist_mu_);
      persist_work_cv_.AwaitFor(persist_mu_, std::chrono::milliseconds(10),
                                [&] { return stop_.load(std::memory_order_relaxed); });
      continue;
    }

    imm_mtb_.store(nullptr, std::memory_order_seq_cst);
    persist_done_cv_.SignalAll();

    // Grace period #2: no reader still sees the immutable Memtable.
    rcu_.Synchronize();
    delete old;

    if (options_.enable_wal && !aborted) {
      // Every record in a log snapshotted at this cycle's rotation
      // reached a generation that has now persisted (the pre-swap epoch
      // drain is what guarantees this). On Aborted the data never hit
      // disk: keep the logs for the next recovery.
      for (uint64_t number : pending_wal_deletes_) {
        options_.disk.env->RemoveFile(WalFileName(number));
      }
      pending_wal_deletes_.clear();
    }
  }
}

std::string FloDB::WalFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/wal-%06llu.log", static_cast<unsigned long long>(number));
  return options_.disk.path + buf;
}

Status FloDB::RecoverFromWal() {
  Env* env = options_.disk.env;
  env->CreateDir(options_.disk.path);

  std::vector<std::string> children;
  env->GetChildren(options_.disk.path, &children);
  std::vector<uint64_t> wal_numbers;
  for (const std::string& name : children) {
    uint64_t number;
    if (sscanf(name.c_str(), "wal-%" SCNu64 ".log", &number) == 1) {
      wal_numbers.push_back(number);
    }
  }
  std::sort(wal_numbers.begin(), wal_numbers.end());

  // A log below the MANIFEST's log number was persisted before its
  // deletion failed or was lost; replaying it would shadow newer data.
  const uint64_t log_number = disk_ != nullptr ? disk_->LogNumber() : 0;
  uint64_t replayed = 0;
  MemTable* mtb = mtb_.load(std::memory_order_relaxed);
  for (uint64_t number : wal_numbers) {
    if (number < log_number) {
      continue;
    }
    std::unique_ptr<SequentialFile> file;
    Status s = env->NewSequentialFile(WalFileName(number), &file);
    if (!s.ok()) {
      return s;
    }
    WalReader reader(std::move(file));
    s = reader.ReplayUpdates([&](const Slice& key, const Slice& value, ValueType type) {
      const uint64_t seq = global_seq_.fetch_add(1, std::memory_order_relaxed);
      mtb->Add(key, value, seq, type);
      ++replayed;
    });
    if (!s.ok()) {
      return s;  // corrupt or retired records: refuse to open on them
    }
  }

  const uint64_t next_log =
      std::max<uint64_t>({1, log_number, wal_numbers.empty() ? 0 : wal_numbers.back() + 1});
  // Make the recovered state durable, then retire the old logs.
  if (replayed > 0 && disk_ != nullptr) {
    MemTableIterator iter(mtb);
    Status s = disk_->AddRun(&iter, next_log);
    if (!s.ok()) {
      return s;
    }
    mtb_.store(NewMemTable(), std::memory_order_relaxed);
    delete mtb;
  }
  for (uint64_t number : wal_numbers) {
    env->RemoveFile(WalFileName(number));
  }

  return wal_.Open(next_log);
}

}  // namespace flodb
