#include "flodb/baselines/baseline_store.h"

#include <algorithm>

#include "flodb/disk/merging_iterator.h"
#include "flodb/sync/backoff.h"

namespace flodb {

using Concurrency = BaselineOptions::Concurrency;

namespace {

// Most writers one group-commit leader applies at once.
constexpr size_t kWriteGroupMax = 64;

BaselineOptions Preset(const char* name, Concurrency concurrency, BaselineMemTable::Kind kind,
                       size_t memtable_bytes, const DiskOptions& disk, int compaction_threads) {
  BaselineOptions options;
  options.name = name;
  options.concurrency = concurrency;
  options.memtable_kind = kind;
  options.memtable_bytes = memtable_bytes;
  options.disk = disk;
  options.disk.compaction_threads = compaction_threads;
  return options;
}

}  // namespace

BaselineOptions BaselineOptions::LevelDB(size_t memtable_bytes, const DiskOptions& disk) {
  return Preset("LevelDB-like", Concurrency::kLevelDB, BaselineMemTable::Kind::kSkipList,
                memtable_bytes, disk, 1);
}

BaselineOptions BaselineOptions::HyperLevelDB(size_t memtable_bytes, const DiskOptions& disk) {
  return Preset("HyperLevelDB-like", Concurrency::kHyperLevelDB,
                BaselineMemTable::Kind::kSkipList, memtable_bytes, disk, 1);
}

BaselineOptions BaselineOptions::RocksDB(size_t memtable_bytes, const DiskOptions& disk,
                                         BaselineMemTable::Kind kind) {
  return Preset("RocksDB-like", Concurrency::kRocksDB, kind, memtable_bytes, disk, 2);
}

BaselineOptions BaselineOptions::CLSM(size_t memtable_bytes, const DiskOptions& disk) {
  return Preset("RocksDB/cLSM-like", Concurrency::kCLSM, BaselineMemTable::Kind::kSkipList,
                memtable_bytes, disk, 2);
}

BaselineStore::BaselineStore(const BaselineOptions& options) : options_(options) {}

Status BaselineStore::Open(const BaselineOptions& options, std::unique_ptr<BaselineStore>* out) {
  if (options.enable_persistence &&
      (options.disk.env == nullptr || options.disk.path.empty())) {
    return Status::InvalidArgument("persistence requires disk.env and disk.path");
  }
  auto store = std::unique_ptr<BaselineStore>(new BaselineStore(options));
  if (options.enable_persistence) {
    Status s = DiskComponent::Open(options.disk, &store->disk_);
    if (!s.ok()) {
      return s;
    }
    const uint64_t max_seq = store->disk_->MaxPersistedSeq();
    store->seq_.store(max_seq + 1, std::memory_order_relaxed);
    store->committed_seq_.store(max_seq, std::memory_order_relaxed);
  }
  store->mem_.store(store->NewMemTable(), std::memory_order_relaxed);
  store->flush_thread_ = std::thread([raw = store.get()] { raw->FlushLoop(); });
  *out = std::move(store);
  return Status::OK();
}

BaselineStore::~BaselineStore() {
  {
    // Under flush_mu_, like every change to what FlushLoop's predicate
    // reads: a store between its check and its sleep would lose the
    // wakeup and hang the join.
    MutexLock lock(flush_mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  flush_cv_.SignalAll();
  room_cv_.SignalAll();
  if (flush_thread_.joinable()) {
    flush_thread_.join();
  }
  delete mem_.load(std::memory_order_relaxed);
  delete imm_.load(std::memory_order_relaxed);
}

Status BaselineStore::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null write batch");
  }
  if (batch->Empty()) {
    return Status::OK();
  }
  // Apply entry by entry through the configured write protocol; the
  // single-writer designs group concurrent batches in their leader queue
  // anyway, which is the only batching the originals did.
  Status result;
  uint64_t value_entries = 0;
  Status s = batch->ForEach([&](const Slice& key, const Slice& value, ValueType type) {
    if (type == ValueType::kValue) {
      ++value_entries;
    }
    if (result.ok()) {
      result = Update(key, value, type);
    }
  });
  if (!s.ok()) {
    return s;
  }
  if (options.fill_stats) {
    batch_writes_.fetch_add(1, std::memory_order_relaxed);
    batch_entries_.fetch_add(batch->Count(), std::memory_order_relaxed);
    puts_.fetch_add(value_entries, std::memory_order_relaxed);
    deletes_.fetch_add(batch->Count() - value_entries, std::memory_order_relaxed);
  }
  return result;
}

Status BaselineStore::Update(const Slice& key, const Slice& value, ValueType type) {
  switch (options_.concurrency) {
    case Concurrency::kLevelDB:
    case Concurrency::kRocksDB:
      return WriteSingleWriter(key, value, type);
    case Concurrency::kHyperLevelDB:
      return WriteHyper(key, value, type);
    case Concurrency::kCLSM:
      return WriteClsm(key, value, type);
  }
  return Status::NotSupported("unknown concurrency mode");
}

void BaselineStore::SwapMemtableLocked() {
  db_mu_.AssertHeld();
  BaselineMemTable* full = mem_.load(std::memory_order_seq_cst);
  {
    MutexLock lock(flush_mu_);  // see ~BaselineStore: no lost wakeup
    imm_.store(full, std::memory_order_seq_cst);
    mem_.store(NewMemTable(), std::memory_order_seq_cst);
  }
  flush_cv_.SignalAll();
}

void BaselineStore::EnsureRoom() {
  // Explicit lock()/unlock() pairing (not MutexLock): the cLSM branch
  // drops db_mu_ to take clsm_mu_ exclusively first (lock ordering:
  // clsm_mu_ before db_mu_), and the analysis checks the manual pairing
  // on every branch.
  db_mu_.lock();
  while (!stop_.load(std::memory_order_relaxed) &&
         mem_.load(std::memory_order_seq_cst)->OverTarget()) {
    if (imm_.load(std::memory_order_seq_cst) == nullptr) {
      if (options_.concurrency == Concurrency::kCLSM) {
        // cLSM blocks every operation while the memory component is
        // switched: take the shared-exclusive lock exclusively.
        db_mu_.unlock();
        WriterMutexLock exclusive(clsm_mu_);
        MutexLock db2(db_mu_);
        if (imm_.load(std::memory_order_seq_cst) == nullptr &&
            mem_.load(std::memory_order_seq_cst)->OverTarget()) {
          SwapMemtableLocked();
        }
        return;
      }
      SwapMemtableLocked();
      db_mu_.unlock();
      return;
    }
    // Memtable full AND a flush is still running: writers are delayed —
    // the very effect Figures 3/4 measure as memory grows.
    room_cv_.WaitFor(db_mu_, std::chrono::milliseconds(1));
  }
  db_mu_.unlock();
}

void BaselineStore::AdvanceCommitted(uint64_t seq) {
  uint64_t cur = committed_seq_.load(std::memory_order_relaxed);
  while (cur < seq && !committed_seq_.compare_exchange_weak(cur, seq, std::memory_order_acq_rel,
                                                            std::memory_order_relaxed)) {
  }
}

void BaselineStore::PublishInOrder(uint64_t seq) {
  // Writers commit their version numbers strictly in order — the
  // "expensive synchronization ... to maintain the order of the updates,
  // through version numbers" (§2.2).
  Backoff backoff;
  while (committed_seq_.load(std::memory_order_acquire) != seq - 1) {
    backoff.Pause();
  }
  committed_seq_.store(seq, std::memory_order_release);
}

Status BaselineStore::WriteSingleWriter(const Slice& key, const Slice& value, ValueType type) {
  Writer w;
  w.key = key;
  w.value = value;
  w.type = type;

  // Explicit lock()/unlock() pairing (not MutexLock): the leader drops
  // writers_mu_ mid-scope to apply the group, and the analysis checks
  // the manual pairing on every branch.
  writers_mu_.lock();
  writers_.push_back(&w);
  while (!w.done && writers_.front() != &w) {
    writers_cv_.Wait(writers_mu_);
  }
  if (w.done) {
    // A leader already applied our write; `w` is ours alone again, safe
    // to read unlocked.
    writers_mu_.unlock();
    return w.status;
  }

  // We are the leader: collect a group and apply it sequentially.
  const size_t group_size = std::min(writers_.size(), kWriteGroupMax);
  std::vector<Writer*> group(writers_.begin(), writers_.begin() + group_size);
  writers_mu_.unlock();

  EnsureRoom();
  uint64_t last_seq = 0;
  {
    RcuReadGuard guard(rcu_);
    BaselineMemTable* mem = mem_.load(std::memory_order_seq_cst);
    for (Writer* writer : group) {
      const uint64_t seq = seq_.fetch_add(1, std::memory_order_acq_rel);
      mem->Add(writer->key, writer->value, seq, writer->type);
      last_seq = seq;
    }
  }
  AdvanceCommitted(last_seq);

  writers_mu_.lock();
  for (size_t i = 0; i < group.size(); ++i) {
    writers_.pop_front();
    group[i]->done = true;
    group[i]->status = Status::OK();
  }
  writers_mu_.unlock();
  writers_cv_.SignalAll();
  return Status::OK();
}

Status BaselineStore::WriteHyper(const Slice& key, const Slice& value, ValueType type) {
  EnsureRoom();
  uint64_t seq;
  {
    // Global mutex at the start of the operation (version assignment).
    MutexLock db(db_mu_);
    seq = seq_.fetch_add(1, std::memory_order_acq_rel);
  }
  {
    RcuReadGuard guard(rcu_);
    mem_.load(std::memory_order_seq_cst)->Add(key, value, seq, type);
  }
  PublishInOrder(seq);
  {
    // Global mutex at the end of the operation.
    MutexLock db(db_mu_);
  }
  return Status::OK();
}

Status BaselineStore::WriteClsm(const Slice& key, const Slice& value, ValueType type) {
  while (true) {
    uint64_t seq = 0;
    bool inserted = false;
    {
      ReaderMutexLock shared(clsm_mu_);
      RcuReadGuard guard(rcu_);
      BaselineMemTable* mem = mem_.load(std::memory_order_seq_cst);
      if (!mem->OverTarget()) {
        seq = seq_.fetch_add(1, std::memory_order_acq_rel);
        mem->Add(key, value, seq, type);
        inserted = true;
      }
    }
    if (inserted) {
      PublishInOrder(seq);  // outside all locks
      return Status::OK();
    }
    EnsureRoom();  // takes the lock exclusively for the switch
  }
}

Status BaselineStore::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  if (options.fill_stats) {
    gets_.fetch_add(1, std::memory_order_relaxed);
  }
  // The cLSM shared lock is conditional, which the analysis cannot track
  // through one scope — so the body lives in GetImpl and the lock wraps
  // the call where it is taken at all.
  if (options_.concurrency == Concurrency::kCLSM) {
    ReaderMutexLock clsm_shared(clsm_mu_);
    return GetImpl(options, key, value);
  }
  return GetImpl(options, key, value);
}

Status BaselineStore::GetImpl(const ReadOptions& options, const Slice& key, std::string* value) {
  (void)options;
  const bool global_lock_reads = options_.concurrency == Concurrency::kLevelDB ||
                                 options_.concurrency == Concurrency::kHyperLevelDB;
  if (global_lock_reads) {
    // Critical section #1: reference the memory components / metadata.
    MutexLock db(db_mu_);
  }

  ValueType type = ValueType::kValue;
  uint64_t seq = 0;
  bool found = false;
  {
    RcuReadGuard guard(rcu_);
    for (BaselineMemTable* table : {mem_.load(std::memory_order_seq_cst),
                                    imm_.load(std::memory_order_seq_cst)}) {
      if (table != nullptr && table->Get(key, UINT64_MAX, value, &seq, &type)) {
        found = true;
        break;
      }
    }
  }
  Status result = Status::NotFound();
  if (found) {
    result = type == ValueType::kTombstone ? Status::NotFound() : Status::OK();
  } else if (disk_ != nullptr) {
    Status s = disk_->Get(key, value, &seq, &type);
    if (s.ok()) {
      result = type == ValueType::kTombstone ? Status::NotFound() : Status::OK();
    } else if (!s.IsNotFound()) {
      result = s;
    }
  }

  if (global_lock_reads) {
    // Critical section #2: drop references (LevelDB's unref pattern).
    MutexLock db(db_mu_);
  }
  return result;
}

std::unique_ptr<ScanIterator> BaselineStore::NewScanIterator(const ReadOptions& options,
                                                             const Slice& low_key,
                                                             const Slice& high_key) {
  if (options.fill_stats) {
    scans_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::make_unique<ScanIterator>(
      low_key, options.scan_chunk_size,
      [this, high = high_key.ToString()](const Slice& start, bool exclusive, size_t limit,
                                         std::vector<ScanEntry>* out) {
        // Same conditional-lock split as Get/GetImpl.
        if (options_.concurrency == Concurrency::kCLSM) {
          ReaderMutexLock clsm_shared(clsm_mu_);
          return ScanImpl(start, exclusive, Slice(high), limit, out);
        }
        return ScanImpl(start, exclusive, Slice(high), limit, out);
      });
}

Status BaselineStore::ScanImpl(const Slice& start, bool exclusive_start, const Slice& high_key,
                               size_t limit, std::vector<ScanEntry>* out) {
  out->clear();
  const bool global_lock_reads = options_.concurrency == Concurrency::kLevelDB ||
                                 options_.concurrency == Concurrency::kHyperLevelDB;
  if (global_lock_reads) {
    MutexLock db(db_mu_);
  }

  // Multi-versioning gives baselines point-in-time scans for free: pick a
  // snapshot and ignore newer versions.
  const uint64_t snapshot = committed_seq_.load(std::memory_order_acquire);
  {
    RcuReadGuard guard(rcu_);
    std::vector<std::unique_ptr<Iterator>> children;
    for (BaselineMemTable* table : {mem_.load(std::memory_order_seq_cst),
                                    imm_.load(std::memory_order_seq_cst)}) {
      if (table != nullptr) {
        children.push_back(table->NewSortedIterator());
      }
    }
    if (disk_ != nullptr) {
      children.push_back(disk_->NewIterator());
    }
    std::unique_ptr<Iterator> merged = NewMergingIterator(std::move(children));

    // Seeding the dedup state with an exclusive start skips every version
    // of it.
    std::string last_key = exclusive_start ? start.ToString() : std::string();
    bool has_last = exclusive_start;
    for (merged->Seek(start); merged->Valid(); merged->Next()) {
      if (!high_key.empty() && merged->key().compare(high_key) >= 0) {
        break;
      }
      if (merged->seq() > snapshot) {
        continue;  // newer than our snapshot: invisible
      }
      if (has_last && merged->key() == Slice(last_key)) {
        continue;  // older version of an emitted key
      }
      last_key.assign(merged->key().data(), merged->key().size());
      has_last = true;
      if (merged->type() == ValueType::kTombstone) {
        continue;
      }
      out->push_back(ScanEntry{last_key, merged->value().ToString(), merged->seq()});
      if (limit != 0 && out->size() >= limit) {
        break;
      }
    }
  }

  if (global_lock_reads) {
    MutexLock db(db_mu_);
  }
  return Status::OK();
}

void BaselineStore::FlushLoop() {
  while (true) {
    BaselineMemTable* imm;
    {
      MutexLock lock(flush_mu_);
      // The predicate reads only atomics, so a lambda is fine here.
      flush_cv_.Await(flush_mu_, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               imm_.load(std::memory_order_seq_cst) != nullptr;
      });
    }
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    imm = imm_.load(std::memory_order_seq_cst);
    if (imm == nullptr) {
      continue;
    }
    // For hash memtables this is where the linearithmic collect+sort
    // happens — the flush delay of Figure 4.
    std::unique_ptr<Iterator> iter = imm->NewSortedIterator();
    if (disk_ != nullptr) {
      Status s = disk_->AddRun(iter.get());
      if (!s.ok() && !s.IsAborted()) {
        fprintf(stderr, "baseline: flush failed: %s\n", s.ToString().c_str());
      }
    }
    imm_.store(nullptr, std::memory_order_seq_cst);
    rcu_.Synchronize();  // readers may still hold the pointer
    delete imm;
    room_cv_.SignalAll();
  }
}

Status BaselineStore::FlushAll() {
  while (true) {
    bool empty;
    {
      MutexLock db(db_mu_);
      BaselineMemTable* mem = mem_.load(std::memory_order_seq_cst);
      if (mem->Count() > 0 && imm_.load(std::memory_order_seq_cst) == nullptr) {
        SwapMemtableLocked();
      }
      empty = mem_.load(std::memory_order_seq_cst)->Count() == 0 &&
              imm_.load(std::memory_order_seq_cst) == nullptr;
    }
    if (empty) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (disk_ != nullptr) {
    disk_->WaitForCompactions();
  }
  return Status::OK();
}

StoreStats BaselineStore::GetStats() const {
  StoreStats stats;
  stats.puts = puts_.load(std::memory_order_relaxed);
  stats.gets = gets_.load(std::memory_order_relaxed);
  stats.deletes = deletes_.load(std::memory_order_relaxed);
  stats.scans = scans_.load(std::memory_order_relaxed);
  stats.batch_writes = batch_writes_.load(std::memory_order_relaxed);
  stats.batch_entries = batch_entries_.load(std::memory_order_relaxed);
  if (disk_ != nullptr) {
    stats.disk = disk_->GetStats();
  }
  return stats;
}

}  // namespace flodb
