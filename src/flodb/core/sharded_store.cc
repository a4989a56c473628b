// ShardedKVStore: batch splitting, routed point ops, and the k-way
// merged scan over per-shard streaming iterators. See sharded_store.h
// and DESIGN.md §8 for the semantics.

#include "flodb/core/sharded_store.h"

#include <algorithm>
#include <cstdio>

#include "flodb/common/coding.h"
#include "flodb/disk/env.h"
#include "flodb/disk/merging_iterator.h"

namespace flodb {

namespace {

// The topology manifest ("<path>/SHARDING"): shard count and routing
// prefix skip, written on first open. Reopening with a different
// topology would silently strand durable data in shards the new router
// never consults, so a mismatch refuses to open.
constexpr char kShardingManifest[] = "/SHARDING";

std::string EncodeTopology(int shards, size_t prefix_skip) {
  char buf[64];
  snprintf(buf, sizeof(buf), "shards=%d prefix_skip=%zu\n", shards, prefix_skip);
  return buf;
}

Status CheckOrWriteTopology(Env* env, const std::string& base, int shards, size_t prefix_skip) {
  const std::string path = base + kShardingManifest;
  const std::string expected = EncodeTopology(shards, prefix_skip);
  std::string existing;
  if (ReadFileToString(env, path, &existing).ok()) {
    if (existing != expected) {
      return Status::InvalidArgument("sharding topology mismatch: " + base + " was created with " +
                                     existing + " but was opened with " + expected);
    }
    return Status::OK();
  }
  return WriteStringToFile(env, Slice(expected), path, /*sync=*/true);
}

// Txn-log record payload: uint8 kTxnCommitTag | varint64 txn_id, framed by
// the shared WalWriter/WalReader CRC framing (DESIGN.md §10). The tag
// byte leaves room for future marker kinds (e.g. explicit aborts).
constexpr uint8_t kTxnCommitTag = 1;

// Rebuilds a status with the same code but an annotated message (the
// factory constructors are the only way in).
Status StatusWithCode(Status::Code code, const std::string& msg) {
  switch (code) {
    case Status::Code::kNotFound:
      return Status::NotFound(msg);
    case Status::Code::kCorruption:
      return Status::Corruption(msg);
    case Status::Code::kNotSupported:
      return Status::NotSupported(msg);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case Status::Code::kBusy:
      return Status::Busy(msg);
    case Status::Code::kAborted:
      return Status::Aborted(msg);
    case Status::Code::kIOError:
    default:
      return Status::IOError(msg);
  }
}

// Presents a per-shard ScanIterator (user-facing: tombstones elided, one
// live version per key) as a disk/Iterator so NewMergingIterator can
// heap-merge shard streams. Keys never collide across shards (routing is
// a function of the key), so the merge degenerates to pure interleaving.
// seq() forwards the shard stream's real per-version seq; type() is
// kValue by construction — a user-facing stream elides tombstones, so
// every entry it emits IS a live value.
class ShardChildIterator final : public Iterator {
 public:
  explicit ShardChildIterator(std::unique_ptr<ScanIterator> child)
      : child_(std::move(child)) {}

  bool Valid() const override { return child_->Valid(); }

  // Already positioned at its low bound by construction.
  void SeekToFirst() override {}

  void Seek(const Slice& target) override {
    // Forward-only: a ScanIterator cannot rewind, and the merge only ever
    // seeks forward (it never does at all in the current facade).
    while (child_->Valid() && child_->key().compare(target) < 0) {
      child_->Next();
    }
  }

  void Next() override { child_->Next(); }

  Slice key() const override { return child_->key(); }
  Slice value() const override { return child_->value(); }
  uint64_t seq() const override { return child_->seq(); }
  ValueType type() const override { return ValueType::kValue; }
  Status status() const override { return child_->status(); }

  size_t MaxBufferedEntries() const { return child_->MaxBufferedEntries(); }

 private:
  std::unique_ptr<ScanIterator> child_;
};

// The cross-shard cursor: per-shard streaming iterators under one k-way
// merge. Memory stays bounded by (consulted shards) x chunk size; the
// per-chunk snapshot guarantees of each shard stream carry over per
// shard (DESIGN.md §8).
class ShardedScanIterator final : public ScanIterator {
 public:
  ShardedScanIterator(std::vector<std::unique_ptr<ScanIterator>> children) {
    std::vector<std::unique_ptr<Iterator>> adapted;
    adapted.reserve(children.size());
    for (auto& child : children) {
      auto adapter = std::make_unique<ShardChildIterator>(std::move(child));
      children_.push_back(adapter.get());
      adapted.push_back(std::move(adapter));
    }
    merged_ = NewMergingIterator(std::move(adapted));
    merged_->SeekToFirst();
  }

  bool Valid() const override { return merged_->Valid(); }
  void Next() override { merged_->Next(); }
  Slice key() const override { return merged_->key(); }
  Slice value() const override { return merged_->value(); }
  uint64_t seq() const override { return merged_->seq(); }
  Status status() const override { return merged_->status(); }

  // The facade's observable bound: the sum of the shard streams' high-water
  // marks (each bounded by its chunk size).
  size_t MaxBufferedEntries() const override {
    size_t total = 0;
    for (const ShardChildIterator* child : children_) {
      total += child->MaxBufferedEntries();
    }
    return total;
  }

 private:
  std::vector<ShardChildIterator*> children_;  // owned by merged_
  std::unique_ptr<Iterator> merged_;
};

}  // namespace

ShardedKVStore::ShardedKVStore(int shards, size_t prefix_skip) : router_(shards, prefix_skip) {
  shards_.reserve(static_cast<size_t>(shards));
}

std::string ShardedKVStore::ShardPath(const std::string& base, int shard) {
  char buf[16];
  snprintf(buf, sizeof(buf), "/shard-%03d", shard);
  return base + buf;
}

std::string ShardedKVStore::TxnLogPath(const std::string& base) { return base + "/txn.log"; }

ShardedKVStore::~ShardedKVStore() {
  if (txn_log_ != nullptr) {
    txn_log_->Sync();
    txn_log_->Close();
  }
}

Status ShardedKVStore::Open(const FloDbOptions& options, std::unique_ptr<ShardedKVStore>* out) {
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.shards > kMaxShards) {
    return Status::InvalidArgument("shards must be <= 256");
  }
  const int n = ShardRouter::RoundUpToPowerOfTwo(options.shards);
  if (options.memory_budget_bytes / static_cast<size_t>(n) == 0) {
    return Status::InvalidArgument("memory_budget_bytes too small for shard count");
  }
  if (options.disk.table_cache_entries == 0) {
    // Checked before the per-shard floor below would paper over it; keep
    // the error identical to the single-instance path's.
    return Status::InvalidArgument("table_cache_entries must be >= 1");
  }

  // Per-shard configuration: an equal slice of the memory budget and of
  // the compaction-thread budget (floor of one thread per shard; 0 keeps
  // meaning "disabled").
  FloDbOptions shard_options = options;
  shard_options.shards = 1;
  shard_options.memory_budget_bytes = options.memory_budget_bytes / static_cast<size_t>(n);
  if (options.disk.compaction_threads > 0) {
    shard_options.disk.compaction_threads = std::max(1, options.disk.compaction_threads / n);
    // Every shard keeps >= 1 worker so it can always drain its own L0,
    // but the floor means n shards would otherwise run up to n
    // compactions at once regardless of the configured budget. A shared
    // limiter restores the global bound: workers beyond the pre-split
    // total block before doing any merge I/O.
    if (shard_options.disk.compaction_limiter == nullptr && n > 1) {
      shard_options.disk.compaction_limiter =
          std::make_shared<CompactionThreadLimiter>(options.disk.compaction_threads);
    }
  }
  // Read-path caches split like the memory budget, with floors so a high
  // shard count cannot silently flip caching off (0 keeps meaning
  // "disabled") or strand a shard without table handles.
  if (options.disk.block_cache_bytes > 0) {
    shard_options.disk.block_cache_bytes =
        std::max<size_t>(options.disk.block_cache_bytes / static_cast<size_t>(n), 64u << 10);
  }
  shard_options.disk.table_cache_entries =
      std::max<size_t>(options.disk.table_cache_entries / static_cast<size_t>(n), 1);

  auto store = std::unique_ptr<ShardedKVStore>(
      new ShardedKVStore(n, options.shard_key_prefix_skip));
  store->wal_enabled_ = options.enable_wal;
  if (options.enable_persistence) {
    if (options.disk.env == nullptr || options.disk.path.empty()) {
      return Status::InvalidArgument("persistence requires disk.env and disk.path");
    }
    Status s = options.disk.env->CreateDir(options.disk.path);
    if (!s.ok()) {
      return s;
    }
    s = CheckOrWriteTopology(options.disk.env, options.disk.path, n,
                             options.shard_key_prefix_skip);
    if (!s.ok()) {
      return s;
    }
  }

  // Recovery step 1: read the txn log into the committed-marker set,
  // BEFORE any shard replays its WAL: the markers decide the fate of the
  // prepares sitting in shard WALs. A torn tail record is the normal
  // crash outcome (the marker's transaction was never acknowledged with
  // sync, or the ack raced the crash) and ends the scan; mid-log
  // corruption refuses to open, mirroring the WAL reader's contract.
  uint64_t max_marker_id = 0;
  std::unique_ptr<CrossShardTxnRecovery> txn_recovery;
  if (options.enable_persistence && options.enable_wal && n > 1) {
    txn_recovery = std::make_unique<CrossShardTxnRecovery>();
    const std::string log_path = TxnLogPath(options.disk.path);
    std::unique_ptr<SequentialFile> file;
    if (options.disk.env->NewSequentialFile(log_path, &file).ok()) {
      WalReader reader(std::move(file));
      std::string payload;
      while (reader.ReadRecord(&payload)) {
        Slice in(payload);
        uint64_t txn_id = 0;
        if (in.size() < 2 || static_cast<uint8_t>(in[0]) != kTxnCommitTag) {
          return Status::Corruption("malformed txn-log record");
        }
        in.remove_prefix(1);
        if (!GetVarint64(&in, &txn_id)) {
          return Status::Corruption("malformed txn-log record");
        }
        txn_recovery->committed.push_back(txn_id);
        max_marker_id = std::max(max_marker_id, txn_id);
      }
      if (!reader.status().ok()) {
        return reader.status();
      }
      std::sort(txn_recovery->committed.begin(), txn_recovery->committed.end());
    }
  }

  // Recovery step 2: open (and recover) shards in index order; no shard
  // serves traffic until every WAL has replayed. Each shard borrows the
  // recovery context: prepare records replay iff their txn id has a
  // marker, orphans are discarded and counted. A failure abandons the
  // already-opened shards (their destructors stop cleanly; nothing was
  // modified beyond each shard's own recovery).
  for (int i = 0; i < n; ++i) {
    FloDbOptions per_shard = shard_options;
    if (options.enable_persistence) {
      per_shard.disk.path = ShardPath(options.disk.path, i);
    }
    std::unique_ptr<FloDB> shard;
    Status s = FloDB::Open(per_shard, txn_recovery.get(), &shard);
    if (!s.ok()) {
      return s;
    }
    store->shards_.push_back(std::move(shard));
  }

  // Recovery step 3: every marker has been consumed (shard recovery
  // replayed-and-persisted or discarded every prepare, and deleted the
  // logs that held them), so the txn log truncates and restarts empty.
  // The id counter resumes past every id ever seen — in a marker or in
  // an orphaned prepare — so ids never repeat across restarts.
  if (txn_recovery != nullptr) {
    store->next_txn_id_.store(std::max(max_marker_id, txn_recovery->max_txn_id_seen) + 1,
                              std::memory_order_relaxed);
    std::unique_ptr<WritableFile> file;
    Status s = options.disk.env->NewWritableFile(TxnLogPath(options.disk.path), &file);
    if (!s.ok()) {
      return s;
    }
    // Single-threaded here, but txn_log_ is guarded state; taking the
    // (uncontended) lock keeps the annotation honest.
    MutexLock lock(store->txn_log_mu_);
    store->txn_log_ = std::make_unique<WalWriter>(std::move(file));
  }
  *out = std::move(store);
  return Status::OK();
}

Status ShardedKVStore::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null write batch");
  }
  if (batch->Empty()) {
    return Status::OK();
  }
  if (shards_.size() == 1) {
    return shards_[0]->Write(options, batch);
  }

  // First pass: does the batch straddle shards at all? The common cases —
  // one-entry Put/Delete wrappers and locality-aware batches — stay on
  // the zero-copy path.
  int single_shard = -1;
  bool straddles = false;
  Status s = batch->ForEach([&](const Slice& key, const Slice&, ValueType) {
    const int shard = router_.ShardOf(key);
    if (single_shard < 0) {
      single_shard = shard;
    } else if (shard != single_shard) {
      straddles = true;
    }
  });
  if (!s.ok()) {
    return s;
  }
  if (!straddles) {
    return shards_[single_shard]->Write(options, batch);
  }

  // Split by shard, preserving relative entry order inside each split so
  // last-write-wins still holds per key (a key always routes to the same
  // shard). Reused per thread so steady-state splitting is allocation-free.
  thread_local std::vector<WriteBatch> splits;
  if (splits.size() < shards_.size()) {
    splits.resize(shards_.size());
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    splits[i].Clear();
  }
  s = batch->ForEach([&](const Slice& key, const Slice& value, ValueType type) {
    WriteBatch& split = splits[static_cast<size_t>(router_.ShardOf(key))];
    if (type == ValueType::kValue) {
      split.Put(key, value);
    } else {
      split.Delete(key);
    }
  });
  if (!s.ok()) {
    return s;
  }
  cross_shard_writes_.fetch_add(1, std::memory_order_relaxed);

  return WriteAtomic(options, splits);
}

// Two-phase commit over the per-shard WAL machinery (DESIGN.md §8).
// Phase 1 logs a prepare record in every touched shard — always fsync'd,
// so a durable commit marker IMPLIES every participant's prepare is
// durable (presumed abort: recovery discards any prepare without a
// marker). Phase 2 appends the marker to the router's txn log (fsync'd
// before the ack for sync writers). Phase 3 applies every split to
// memory under the shared snapshot fence; nothing is visible before the
// marker exists. Any phase 1/2 failure aborts: the tokens are released
// without applying, the orphaned prepares are discarded by the next
// recovery, and the caller is told nothing of the batch is visible.
Status ShardedKVStore::WriteAtomic(const WriteOptions& options, std::vector<WriteBatch>& splits) {
  const uint64_t txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);

  // The participant shard set, pre-encoded once and shared by reference
  // across every shard's prepare record.
  std::string participants;
  uint32_t nshards = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!splits[i].Empty()) {
      ++nshards;
    }
  }
  PutVarint32(&participants, nshards);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!splits[i].Empty()) {
      PutVarint32(&participants, static_cast<uint32_t>(i));
    }
  }

  // Phases 1 + 2 only exist with a WAL: without one there is no crash
  // state to keep consistent, and the fence alone provides the scan
  // guarantee.
  std::vector<std::pair<size_t, int>> prepared;  // (shard, apply-token slot)
  prepared.reserve(nshards);
  if (wal_enabled_) {
    Status s;
    for (size_t i = 0; i < shards_.size() && s.ok(); ++i) {
      if (splits[i].Empty()) {
        continue;
      }
      int token_slot = -1;
      s = shards_[i]->PrepareBatch(options, &splits[i], txn_id, Slice(participants),
                                   &token_slot);
      if (s.ok()) {
        prepared.emplace_back(i, token_slot);
      }
    }
    if (s.ok()) {
      s = CommitMarker(txn_id, options.sync);
    }
    if (!s.ok()) {
      // Abort: release every token WITHOUT applying. The prepares stay in
      // their WALs as orphans; with no marker they can never replay, so
      // no shard's slice of this batch is ever visible or durable.
      for (const auto& [shard, token_slot] : prepared) {
        shards_[shard]->AbandonPrepare(token_slot);
      }
      txn_aborts_.fetch_add(1, std::memory_order_relaxed);
      return StatusWithCode(s.code(), "cross-shard transaction aborted, nothing committed: " +
                                          s.ToString());
    }
  }

  // Phase 3: apply to memory. The shared fence spans the WHOLE multi-
  // shard apply, so a consistent merged scan (which takes the fence
  // exclusively while opening its cursors) sees either none or all of
  // this batch. Appliers hold WAL apply tokens and are exempt from
  // Memtable backpressure, so the fence is never held across a blocking
  // wait on the persist thread.
  {
    ReaderMutexLock fence(txn_apply_gate_);
    if (wal_enabled_) {
      for (const auto& [shard, token_slot] : prepared) {
        shards_[shard]->ApplyPreparedBatch(options, &splits[shard], token_slot);
      }
    } else {
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (!splits[i].Empty()) {
          shards_[i]->Write(options, &splits[i]);
        }
      }
    }
  }
  txn_commits_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedKVStore::CommitMarker(uint64_t txn_id, bool sync) {
  TxnMarkerWaiter me;
  me.txn_id = txn_id;
  me.sync = sync;

  // Explicit lock()/unlock() pairing (not MutexLock): the leader drops
  // txn_log_mu_ mid-scope for the Append+Sync phase, and the analysis
  // checks the manual pairing on every branch.
  txn_log_mu_.lock();
  txn_log_queue_.push_back(&me);
  while (!me.done && txn_log_queue_.front() != &me) {
    txn_log_cv_.Wait(txn_log_mu_);
  }
  if (me.done) {
    // A leader committed this marker as part of its group; `me` is ours
    // alone again, safe to read unlocked.
    txn_log_mu_.unlock();
    return me.status;
  }

  // Leader: snapshot the whole queue as the group. A broken log fails the
  // group — appending after an unknown-tail failure would fake
  // durability; the log heals at the next Open's truncation.
  std::vector<TxnMarkerWaiter*> group(txn_log_queue_.begin(), txn_log_queue_.end());
  Status broken = txn_log_status_;
  if (broken.ok() && txn_log_ == nullptr) {
    broken = Status::IOError("txn log is not open");
  }

  size_t appended = 0;
  bool group_has_sync = false;
  Status append_error;
  Status sync_error;
  if (broken.ok()) {
    // IO happens WITHOUT txn_log_mu_ (the queue front keeps new arrivals
    // followers), so a group can form behind a slow fsync.
    WalWriter* log = txn_log_.get();
    txn_log_mu_.unlock();
    std::string payload;
    for (TxnMarkerWaiter* w : group) {
      payload.clear();
      payload.push_back(static_cast<char>(kTxnCommitTag));
      PutVarint64(&payload, w->txn_id);
      Status s = log->AddRecord(payload);
      if (!s.ok()) {
        append_error = s;
        break;
      }
      ++appended;
      group_has_sync = group_has_sync || w->sync;
    }
    if (appended > 0 && group_has_sync) {
      sync_error = log->Sync();
    }
    txn_log_mu_.lock();
  }
  if (!append_error.ok() || !sync_error.ok()) {
    txn_log_status_ = append_error.ok() ? sync_error : append_error;
  }

  // Mirror WalCommit's per-writer results: an appended, unsynced marker
  // is an acceptable ack for a sync=false transaction (it may vanish in a
  // crash — together with its prepares, whole); a sync writer whose fsync
  // failed aborts.
  for (size_t i = 0; i < group.size(); ++i) {
    TxnMarkerWaiter* w = group[i];
    if (!broken.ok()) {
      w->status = broken;
    } else if (i >= appended) {
      w->status = append_error;
    } else if (w->sync && !sync_error.ok()) {
      w->status = sync_error;
    } else {
      w->status = Status::OK();
    }
    w->done = true;
  }
  txn_log_queue_.erase(txn_log_queue_.begin(),
                       txn_log_queue_.begin() + static_cast<ptrdiff_t>(group.size()));
  txn_log_mu_.unlock();
  txn_log_cv_.SignalAll();
  return me.status;
}

Status ShardedKVStore::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  return shards_[static_cast<size_t>(router_.ShardOf(key))]->Get(options, key, value);
}

std::unique_ptr<ScanIterator> ShardedKVStore::NewScanIterator(const ReadOptions& options,
                                                              const Slice& low_key,
                                                              const Slice& high_key) {
  if (shards_.size() == 1) {
    return shards_[0]->NewScanIterator(options, low_key, high_key);
  }
  int first = 0;
  int last = 0;
  router_.ShardRange(low_key, high_key, &first, &last);
  std::vector<std::unique_ptr<ScanIterator>> children;
  // Inverted bounds (low > high) give first > last: an empty merge, to
  // match the single-shard behavior of an immediately-exhausted scan.
  if (last >= first) {
    children.reserve(static_cast<size_t>(last - first + 1));
  }

  // Consistent cross-shard snapshot (> 1 consulted shard):
  // hold the write fence exclusively while opening every shard cursor —
  // no cross-shard batch can apply in between, and each cursor fetches
  // its FIRST chunk inside its constructor, so for ranges that fit in one
  // chunk per shard the entire result materializes under the fence.
  // Cursors must take fresh master snapshots: a piggybacked seq predates
  // the fence and could sit on the far side of a just-applied batch.
  // Later chunks refetch outside the fence and may advance per shard —
  // the same per-chunk guarantee as a single FloDB stream (DESIGN.md §4).
  // The explicit kPiggyback hint opts out of the fence entirely (cheap,
  // but not consistent across shards).
  ReadOptions child_options = options;
  if (last > first && options.snapshot_mode != SnapshotMode::kPiggyback) {
    child_options.snapshot_mode = SnapshotMode::kMaster;
    WriterMutexLock fence(txn_apply_gate_);
    for (int i = first; i <= last; ++i) {
      children.push_back(
          shards_[static_cast<size_t>(i)]->NewScanIterator(child_options, low_key, high_key));
    }
    return std::make_unique<ShardedScanIterator>(std::move(children));
  }
  for (int i = first; i <= last; ++i) {
    children.push_back(
        shards_[static_cast<size_t>(i)]->NewScanIterator(child_options, low_key, high_key));
  }
  return std::make_unique<ShardedScanIterator>(std::move(children));
}

Status ShardedKVStore::FlushAll() {
  for (auto& shard : shards_) {
    Status s = shard->FlushAll();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status ShardedKVStore::CompactRange(const Slice& begin, const Slice& end) {
  // Every shard owns a contiguous key range, so pruning by the router
  // would be possible; an unconditional fan-out keeps this correct under
  // shard_key_prefix_skip (where routing ignores leading bytes and a
  // [begin, end) span does not map to a contiguous shard interval).
  for (auto& shard : shards_) {
    Status s = shard->CompactRange(begin, end);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

StoreStats ShardedKVStore::GetStats() const {
  StoreStats total;
  for (const auto& shard : shards_) {
    const StoreStats s = shard->GetStats();
    total.puts += s.puts;
    total.gets += s.gets;
    total.deletes += s.deletes;
    total.scans += s.scans;
    total.batch_writes += s.batch_writes;
    total.batch_entries += s.batch_entries;
    total.wal_batch_records += s.wal_batch_records;
    total.membuffer_adds += s.membuffer_adds;
    total.memtable_direct_adds += s.memtable_direct_adds;
    total.drained_entries += s.drained_entries;
    total.scan_restarts += s.scan_restarts;
    total.fallback_scans += s.fallback_scans;
    total.master_scans += s.master_scans;
    total.piggyback_scans += s.piggyback_scans;
    total.membuffer_rotations += s.membuffer_rotations;
    total.wal_syncs += s.wal_syncs;
    total.group_commit_groups += s.group_commit_groups;
    total.group_commit_writers += s.group_commit_writers;
    total.persist_failures += s.persist_failures;
    total.txn_prepares += s.txn_prepares;
    total.orphaned_prepares += s.orphaned_prepares;
    total.vlog_gc_failures += s.vlog_gc_failures;
    total.vlog_gc_quarantined += s.vlog_gc_quarantined;
    total.disk.bytes_flushed += s.disk.bytes_flushed;
    total.disk.bytes_compacted_in += s.disk.bytes_compacted_in;
    total.disk.bytes_compacted_out += s.disk.bytes_compacted_out;
    total.disk.compactions += s.disk.compactions;
    total.disk.flushes += s.disk.flushes;
    total.disk.block_cache_hits += s.disk.block_cache_hits;
    total.disk.block_cache_misses += s.disk.block_cache_misses;
    total.disk.block_cache_evictions += s.disk.block_cache_evictions;
    total.disk.block_cache_bytes += s.disk.block_cache_bytes;
    total.disk.block_cache_pinned_bytes += s.disk.block_cache_pinned_bytes;
    total.disk.table_cache_hits += s.disk.table_cache_hits;
    total.disk.table_cache_misses += s.disk.table_cache_misses;
    total.disk.table_cache_evictions += s.disk.table_cache_evictions;
    total.disk.table_cache_entries += s.disk.table_cache_entries;
    total.disk.vlog_files += s.disk.vlog_files;
    total.disk.vlog_bytes += s.disk.vlog_bytes;
    total.disk.vlog_bytes_written += s.disk.vlog_bytes_written;
    total.disk.vlog_writes += s.disk.vlog_writes;
    total.disk.vlog_reads += s.disk.vlog_reads;
    total.disk.vlog_garbage_bytes += s.disk.vlog_garbage_bytes;
    total.disk.vlog_gc_rewrites += s.disk.vlog_gc_rewrites;
    if (total.disk.files_per_level.size() < s.disk.files_per_level.size()) {
      total.disk.files_per_level.resize(s.disk.files_per_level.size(), 0);
    }
    for (size_t l = 0; l < s.disk.files_per_level.size(); ++l) {
      total.disk.files_per_level[l] += s.disk.files_per_level[l];
    }
    if (total.disk.bytes_per_level.size() < s.disk.bytes_per_level.size()) {
      total.disk.bytes_per_level.resize(s.disk.bytes_per_level.size(), 0);
    }
    for (size_t l = 0; l < s.disk.bytes_per_level.size(); ++l) {
      total.disk.bytes_per_level[l] += s.disk.bytes_per_level[l];
    }
  }
  // Router-level transaction counters (not owned by any shard).
  total.txn_commits += txn_commits_.load(std::memory_order_relaxed);
  total.txn_aborts += txn_aborts_.load(std::memory_order_relaxed);
  return total;
}

std::string ShardedKVStore::Name() const {
  if (shards_.size() == 1) {
    return shards_[0]->Name();
  }
  return "ShardedFloDB(" + std::to_string(shards_.size()) + ")";
}

}  // namespace flodb
