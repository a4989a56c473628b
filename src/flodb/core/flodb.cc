// FloDB user-facing operations: Open/close, Get, batch Write (Algorithm 2
// generalized to WriteBatch group commit), FlushAll and stats. Background
// machinery lives in flodb_background.cc; the scan protocol and the
// streaming iterator in flodb_scan.cc.

#include "flodb/core/flodb.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <functional>
#include <thread>

#include "flodb/core/memtable_iterator.h"

namespace flodb {

namespace {

constexpr size_t kMinMemtableTarget = 64u << 10;

size_t ComputeMemtableTarget(const FloDbOptions& options) {
  double fraction = options.enable_membuffer ? (1.0 - options.membuffer_fraction) : 1.0;
  if (fraction < 0.05) {
    fraction = 0.05;
  }
  auto target = static_cast<size_t>(static_cast<double>(options.memory_budget_bytes) * fraction);
  return target < kMinMemtableTarget ? kMinMemtableTarget : target;
}

}  // namespace

FloDB::FloDB(const FloDbOptions& options)
    : options_(options),
      memtable_target_bytes_(ComputeMemtableTarget(options)),
      wal_(options.disk.env, std::bind_front(&FloDB::WalFileName, this)) {}

MemBuffer* FloDB::NewMembuffer() const {
  MemBuffer::Options mo;
  mo.capacity_bytes =
      static_cast<size_t>(static_cast<double>(options_.memory_budget_bytes) *
                          options_.membuffer_fraction);
  if (mo.capacity_bytes < (64u << 10)) {
    mo.capacity_bytes = 64u << 10;
  }
  return new MemBuffer(mo);
}

MemTable* FloDB::NewMemTable() const {
  return new MemTable(memtable_target_bytes_);
}

Status FloDB::Open(const FloDbOptions& options, std::unique_ptr<FloDB>* out) {
  if (options.enable_persistence &&
      (options.disk.env == nullptr || options.disk.path.empty())) {
    return Status::InvalidArgument("persistence requires disk.env and disk.path");
  }
  if (options.enable_wal && !options.enable_persistence) {
    return Status::InvalidArgument("WAL requires persistence");
  }
  if (options.membuffer_fraction <= 0.0 || options.membuffer_fraction >= 1.0) {
    return Status::InvalidArgument("membuffer_fraction must be in (0, 1)");
  }
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory_budget_bytes must be positive");
  }

  auto db = std::unique_ptr<FloDB>(new FloDB(options));
  if (options.enable_persistence) {
    Status s = DiskComponent::Open(options.disk, &db->disk_);
    if (!s.ok()) {
      return s;
    }
    db->global_seq_.store(db->disk_->MaxPersistedSeq() + 1, std::memory_order_relaxed);
  }

  db->mtb_.store(db->NewMemTable(), std::memory_order_relaxed);
  if (options.enable_membuffer) {
    db->mbf_.store(db->NewMembuffer(), std::memory_order_relaxed);
  }

  if (options.enable_wal) {
    Status s = db->RecoverFromWal();
    if (!s.ok()) {
      return s;
    }
  }

  db->StartBackgroundThreads();
  *out = std::move(db);
  return Status::OK();
}

FloDB::~FloDB() {
  StopBackgroundThreads();
  wal_.Close();
  delete mbf_.load(std::memory_order_relaxed);
  delete imm_mbf_.load(std::memory_order_relaxed);
  delete spare_mbf_;
  delete mtb_.load(std::memory_order_relaxed);
  delete imm_mtb_.load(std::memory_order_relaxed);
}

void FloDB::WaitForMemtableHeadroom() {
  // Memtable backpressure happens HERE, before the WAL commit, while
  // this writer holds no apply token: once committed, the apply below
  // must not block (the persist thread's pre-swap drain waits on the
  // token). The hard cap is 2x the Memtable target — the soft
  // OverTarget threshold keeps triggering persists early, and during a
  // persist outage writes stall at the cap instead of growing memory
  // without bound.
  while (true) {
    size_t memtable_bytes;
    {
      RcuReadGuard guard(rcu_);
      memtable_bytes = mtb_.load(std::memory_order_seq_cst)->ApproximateBytes();
    }
    if (memtable_bytes < 2 * memtable_target_bytes_) {
      break;
    }
    TriggerPersist();
    // Timed wait, not a spin: during a persist outage (AddRun retrying
    // on backoff) stalled writers would otherwise peg their cores.
    MutexLock lock(persist_mu_);
    persist_done_cv_.WaitFor(persist_mu_, std::chrono::milliseconds(1));
  }
}

Status FloDB::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null write batch");
  }
  if (batch->Empty()) {
    return Status::OK();
  }
  PendingWrite pending(&wal_);
  if (options_.enable_wal) {
    // A malformed rep must fail here, not poison the WAL for the next
    // recovery.
    Status s = batch->ForEach([](const Slice&, const Slice&, ValueType) {});
    if (!s.ok()) {
      return s;
    }
    WaitForMemtableHeadroom();
    // One WAL record for the whole batch — the group-commit amortization,
    // and the unit of all-or-nothing crash recovery. On success this
    // writer holds an apply token that the persist thread's pre-swap
    // drain waits on, until `pending` releases it.
    s = wal_.Commit(WalRecord::Batch(static_cast<uint32_t>(batch->Count()), Slice(batch->rep())),
                    options.sync, &pending.token_slot);
    if (!s.ok()) {
      // This write failed for good; kick the repair path so FUTURE writes
      // can succeed even in configurations without drain threads (the
      // usual healer) — e.g. enable_membuffer = false.
      wal_.Repair();
      return s;
    }
    if (options.fill_stats) {
      // Gated like the other batch counters so the amortization ratio
      // (batch_entries / wal_batch_records) stays coherent when a caller
      // suppresses stats.
      wal_batch_records_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ApplyBatchToMemory(options, batch, pending.token_slot);
}

Status FloDB::ApplyBatchToMemory(const WriteOptions& options, WriteBatch* batch,
                                 int token_slot) {
  // Decode once up front; every retry round below reuses the refs.
  thread_local std::vector<BatchEntryRef> entries;
  entries.clear();
  uint64_t value_entries = 0;
  Status s = batch->ForEach([&](const Slice& key, const Slice& value, ValueType type) {
    entries.push_back(BatchEntryRef{key, value, type});
    if (type == ValueType::kValue) {
      ++value_entries;
    }
  });
  if (!s.ok()) {
    return s;
  }

  if (options.fill_stats) {
    batch_writes_.fetch_add(1, std::memory_order_relaxed);
    batch_entries_.fetch_add(entries.size(), std::memory_order_relaxed);
    puts_.fetch_add(value_entries, std::memory_order_relaxed);
    deletes_.fetch_add(entries.size() - value_entries, std::memory_order_relaxed);
  }

  // Algorithm 2 (Put), generalized to a batch. Every wait happens OUTSIDE
  // the RCU read section so the background threads' grace periods always
  // terminate; each round runs a SINGLE read-side section covering the
  // Membuffer pass and the Memtable multi-insert of whatever spilled.
  thread_local std::vector<uint32_t> pending;
  thread_local std::vector<uint32_t> spill;
  thread_local std::vector<ConcurrentSkipList::BatchEntry> memtable_batch;
  pending.resize(entries.size());
  for (uint32_t i = 0; i < entries.size(); ++i) {
    pending[i] = i;
  }

  while (true) {
    rcu_.ReadLock();

    spill.clear();
    if (options_.enable_membuffer) {
      MemBuffer* mbf = mbf_.load(std::memory_order_seq_cst);
      for (uint32_t index : pending) {
        const BatchEntryRef& e = entries[index];
        if (mbf->Add(e.key, e.value, e.type) == MemBuffer::AddResult::kFull) {
          spill.push_back(index);
        }
      }
      membuffer_adds_.fetch_add(pending.size() - spill.size(), std::memory_order_relaxed);
    } else {
      spill.assign(pending.begin(), pending.end());
    }

    if (spill.empty()) {
      rcu_.ReadUnlock();
      return Status::OK();
    }

    if (pause_writers_.load(std::memory_order_seq_cst)) {
      rcu_.ReadUnlock();
      // A scan is draining the (old) Membuffer: help, or wait (Alg. 2
      // lines 12-16). Only the still-unapplied entries are retried.
      pending.swap(spill);
      if (!HelpDrainImmMembuffer()) {
        std::this_thread::yield();
      }
      continue;
    }

    MemTable* mtb = mtb_.load(std::memory_order_seq_cst);
    if (mtb->OverTarget() && token_slot < 0) {
      // Wait for the persist thread to install a fresh Memtable (Alg. 2
      // lines 17-18) — "typically a very short wait". A writer holding a
      // WAL apply token is exempt: the persist thread's pre-swap drain
      // waits for its token, so blocking here would deadlock the pair.
      // The overfill is bounded by one batch per concurrent writer, and
      // the persist it triggers below reclaims it promptly.
      rcu_.ReadUnlock();
      pending.swap(spill);
      TriggerPersist();
      std::this_thread::yield();
      continue;
    }

    // Commit the spilled remainder under ONE contiguous seq range,
    // assigned in batch order so last-write-wins holds for duplicate
    // keys inside the batch.
    const uint64_t base = global_seq_.fetch_add(spill.size(), std::memory_order_acq_rel);
    memtable_batch.clear();
    for (size_t j = 0; j < spill.size(); ++j) {
      const BatchEntryRef& e = entries[spill[j]];
      memtable_batch.push_back(
          ConcurrentSkipList::BatchEntry{e.key, e.value, e.type, base + j});
    }
    if (options_.use_multi_insert && memtable_batch.size() > 1) {
      std::sort(memtable_batch.begin(), memtable_batch.end(),
                [](const ConcurrentSkipList::BatchEntry& a,
                   const ConcurrentSkipList::BatchEntry& b) {
                  const int c = a.key.compare(b.key);
                  return c != 0 ? c < 0 : a.seq < b.seq;
                });
      mtb->MultiAdd(memtable_batch);
    } else {
      for (const ConcurrentSkipList::BatchEntry& e : memtable_batch) {
        mtb->Add(e.key, e.value, e.seq, e.type);
      }
    }
    memtable_direct_adds_.fetch_add(memtable_batch.size(), std::memory_order_relaxed);
    const bool now_full = mtb->OverTarget();
    rcu_.ReadUnlock();
    if (now_full) {
      TriggerPersist();
    }
    return Status::OK();
  }
}

Status FloDB::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  if (options.fill_stats) {
    gets_.fetch_add(1, std::memory_order_relaxed);
  }

  RcuReadGuard guard(rcu_);

  // Freshest-first order: MBF, IMM_MBF, MTB, IMM_MTB, DISK (Algorithm 2).
  ValueType type = ValueType::kValue;
  bool found = false;
  for (MemBuffer* buffer : {mbf_.load(std::memory_order_seq_cst),
                            imm_mbf_.load(std::memory_order_seq_cst)}) {
    if (!found && buffer != nullptr && buffer->Get(key, value, &type)) {
      found = true;
    }
  }
  uint64_t seq;
  for (MemTable* table : {mtb_.load(std::memory_order_seq_cst),
                          imm_mtb_.load(std::memory_order_seq_cst)}) {
    if (!found && table != nullptr && table->Get(key, value, &seq, &type)) {
      found = true;
    }
  }
  if (!found && disk_ != nullptr) {
    Status s = disk_->Get(key, value, &seq, &type);
    if (!s.ok()) {
      return s;  // NotFound or a read error
    }
    found = true;
  }
  if (!found || type == ValueType::kTombstone) {
    return Status::NotFound();
  }
  return Status::OK();
}

Status FloDB::FlushAll() {
  // 1. Move everything from the Membuffer into the Memtable.
  if (options_.enable_membuffer) {
    MutexLock master(master_mu_);
    SwapAndDrainMembufferLocked(/*scan_seq=*/nullptr);
  }

  // 2. Persist Memtables until memory is empty. Bail out on shutdown:
  // the persist thread is gone then, so the wait below would never make
  // progress.
  while (!stop_.load(std::memory_order_relaxed)) {
    bool empty;
    {
      RcuReadGuard guard(rcu_);
      MemTable* mtb = mtb_.load(std::memory_order_seq_cst);
      empty = (mtb->Count() == 0) && (imm_mtb_.load(std::memory_order_seq_cst) == nullptr);
    }
    if (empty) {
      break;
    }
    force_persist_.store(true, std::memory_order_seq_cst);
    TriggerPersist();
    MutexLock lock(persist_mu_);
    persist_done_cv_.WaitFor(persist_mu_, std::chrono::milliseconds(10));
  }
  force_persist_.store(false, std::memory_order_seq_cst);

  if (disk_ != nullptr) {
    disk_->WaitForCompactions();
  }
  return Status::OK();
}

Status FloDB::CompactRange(const Slice& begin, const Slice& end) {
  // Flush first so the whole range — including entries still in memory —
  // is subject to the compaction.
  Status s = FlushAll();
  if (!s.ok()) {
    return s;
  }
  if (disk_ == nullptr) {
    return Status::OK();
  }
  return disk_->CompactRange(begin, end);
}

size_t FloDB::MembufferLiveEntries() const {
  RcuReadGuard guard(const_cast<Rcu&>(rcu_));
  size_t total = 0;
  MemBuffer* mbf = mbf_.load(std::memory_order_seq_cst);
  if (mbf != nullptr) {
    total += mbf->LiveEntries();
  }
  MemBuffer* imm = imm_mbf_.load(std::memory_order_seq_cst);
  if (imm != nullptr) {
    total += imm->LiveEntries();
  }
  return total;
}

size_t FloDB::MemtableBytes() const {
  RcuReadGuard guard(const_cast<Rcu&>(rcu_));
  return mtb_.load(std::memory_order_seq_cst)->ApproximateBytes();
}

void FloDB::WaitUntilDrained() {
  while (MembufferLiveEntries() > 0 && !stop_.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
}

StoreStats FloDB::GetStats() const {
  StoreStats stats;
  stats.puts = puts_.load(std::memory_order_relaxed);
  stats.gets = gets_.load(std::memory_order_relaxed);
  stats.deletes = deletes_.load(std::memory_order_relaxed);
  stats.scans = scans_.load(std::memory_order_relaxed);
  stats.batch_writes = batch_writes_.load(std::memory_order_relaxed);
  stats.batch_entries = batch_entries_.load(std::memory_order_relaxed);
  stats.wal_batch_records = wal_batch_records_.load(std::memory_order_relaxed);
  stats.membuffer_adds = membuffer_adds_.load(std::memory_order_relaxed);
  stats.memtable_direct_adds = memtable_direct_adds_.load(std::memory_order_relaxed);
  stats.drained_entries = drained_entries_.load(std::memory_order_relaxed);
  stats.scan_restarts = scan_restarts_.load(std::memory_order_relaxed);
  stats.fallback_scans = fallback_scans_.load(std::memory_order_relaxed);
  stats.master_scans = master_scans_.load(std::memory_order_relaxed);
  stats.piggyback_scans = piggyback_scans_.load(std::memory_order_relaxed);
  stats.membuffer_rotations = membuffer_rotations_.load(std::memory_order_relaxed);
  stats.wal_syncs = wal_.syncs();
  stats.group_commit_groups = wal_.groups();
  stats.group_commit_writers = wal_.committed_writers();
  stats.persist_failures = persist_failures_.load(std::memory_order_relaxed);
  if (disk_ != nullptr) {
    stats.disk = disk_->GetStats();
  }
  return stats;
}

}  // namespace flodb
