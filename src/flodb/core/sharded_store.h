// ShardedKVStore: a KVStore facade that range-partitions the keyspace
// across N independent FloDB instances (DESIGN.md §8).
//
// Each shard is a complete FloDB — its own Membuffer/Memtable pair, WAL,
// drain and persist threads — under a per-shard subdirectory of
// disk.path, so writes to different shards share NO serialization point:
// no common WAL mutex, no common Membuffer, no common drain pipeline.
// The configured memory budget and compaction thread budget are divided
// across the shards (floor of one thread per shard).
//
//   Write(batch)  -> split by shard. A straddling batch commits via
//                    two-phase commit: every touched shard durably logs a
//                    prepare record, the router fsyncs a commit marker
//                    into its txn log, then the batch applies to memory
//                    under a shared fence — recovery is all-or-nothing per
//                    acknowledged batch. Single-shard batches take the
//                    zero-copy fast path: no prepare, no marker, no fence.
//   Get/Put/Del   -> routed to the owning shard.
//   Scan/iterate  -> per-shard streaming iterators merged by a k-way
//                    heap (reusing disk/merging_iterator), keeping the
//                    bounded-chunk memory ceiling per shard; a Scan reads
//                    one chunk of every consulted shard.
//                    Multi-shard cursors open under the write fence with
//                    fresh master snapshots, so the initial chunk of
//                    every shard stream sits on one side of any
//                    cross-shard batch (DESIGN.md §8).
//   Open          -> reads the txn log, then recovers every shard
//                    (per-shard WAL replay honoring commit markers)
//                    before any shard serves traffic.
//
// shards == 1 is a pure pass-through: every operation forwards to the
// single FloDB untouched, so behavior and stats match a plain instance
// byte for byte (tested by sharded_store_test.cc).

#ifndef FLODB_CORE_SHARDED_STORE_H_
#define FLODB_CORE_SHARDED_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/synchronization.h"
#include "flodb/core/flodb.h"
#include "flodb/core/kv_store.h"
#include "flodb/core/options.h"
#include "flodb/core/shard_router.h"
#include "flodb/disk/wal.h"

namespace flodb {

class ShardedKVStore final : public KVStore {
 public:
  // Hard ceiling on the shard count (beyond it the per-shard budgets
  // degenerate and thread counts explode).
  static constexpr int kMaxShards = 256;

  // Opens (and recovers) options.shards FloDB instances. Rejects
  // shards < 1 or > kMaxShards; rounds a non-power-of-two count up to
  // the next power of two (see FloDbOptions::shards).
  static Status Open(const FloDbOptions& options, std::unique_ptr<ShardedKVStore>* out);
  ~ShardedKVStore() override;

  ShardedKVStore(const ShardedKVStore&) = delete;
  ShardedKVStore& operator=(const ShardedKVStore&) = delete;

  using KVStore::Get;

  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  std::unique_ptr<ScanIterator> NewScanIterator(const ReadOptions& options, const Slice& low_key,
                                                const Slice& high_key) override;
  Status FlushAll() override;
  Status CompactRange(const Slice& begin, const Slice& end) override;

  // Rolled-up stats: the sum over shards. Note that a cross-shard Write
  // counts one batch_write PER TOUCHED SHARD (each shard's group commit
  // is real — its own WAL record and memory-component pass).
  StoreStats GetStats() const override;
  std::string Name() const override;

  // ---- introspection for tests, benchmarks and operators ----
  int NumShards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return router_; }
  int ShardOf(const Slice& key) const { return router_.ShardOf(key); }
  // Per-shard stats (balance/skew diagnostics).
  StoreStats ShardStats(int shard) const { return shards_[shard]->GetStats(); }
  // Write() calls whose batch straddled shards and paid the split pass
  // (the split-rate diagnostic: high values suggest keys could be
  // grouped by locality before committing).
  uint64_t CrossShardWrites() const {
    return cross_shard_writes_.load(std::memory_order_relaxed);
  }
  FloDB* shard(int i) const { return shards_[i].get(); }
  // Next cross-shard transaction id to be issued (recovery seeds it past
  // every id ever seen in a marker or prepare).
  uint64_t NextTxnId() const { return next_txn_id_.load(std::memory_order_relaxed); }

  // The subdirectory shard `i` lives in, given the configured base path.
  static std::string ShardPath(const std::string& base, int shard);
  // The router's commit-marker log, given the configured base path.
  static std::string TxnLogPath(const std::string& base);

 private:
  ShardedKVStore(const FloDbOptions& options, int shards);

  // Two-phase commit for a straddling batch: per-shard prepares, one
  // durable commit marker, then apply-to-memory under the shared fence.
  // Any prepare/marker failure aborts with NOTHING visible.
  Status WriteAtomic(const WriteOptions& options, std::vector<WriteBatch>& splits);

  const ShardRouter router_;
  std::vector<std::unique_ptr<FloDB>> shards_;

  // Cross-shard transaction state (DESIGN.md §8).
  const bool wal_enabled_;
  std::atomic<uint64_t> next_txn_id_{1};

  // Txn log (commit markers): append-only at runtime, truncated by the
  // next Open once shard recovery has consumed every marker. Its group-
  // commit queue is the same one FloDB's WAL uses (DESIGN.md §10). It is
  // never repaired: a failure latches it broken until the next Open.
  GroupCommitLog txn_log_;

  // The snapshot fence: the apply phase of a cross-shard commit holds it
  // shared for the whole multi-shard apply; a consistent merged scan
  // holds it unique while opening every shard cursor (each fetches its
  // first chunk inside), so no cursor set can observe half a batch.
  mutable SharedMutex txn_apply_gate_;

  mutable std::atomic<uint64_t> cross_shard_writes_{0};
  mutable std::atomic<uint64_t> txn_commits_{0};
  mutable std::atomic<uint64_t> txn_aborts_{0};
};

}  // namespace flodb

#endif  // FLODB_CORE_SHARDED_STORE_H_
