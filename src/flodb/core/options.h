// FloDbOptions: tuning knobs of the two-tier memory component.
//
// Defaults reflect the paper's configuration scaled to test size: the
// memory budget splits 1/4 Membuffer : 3/4 Memtable (§5.1), multi-insert
// draining, scan restart threshold with fallback.

#ifndef FLODB_CORE_OPTIONS_H_
#define FLODB_CORE_OPTIONS_H_

#include <cstddef>

#include "flodb/disk/disk_component.h"

namespace flodb {

struct FloDbOptions {
  // Total in-memory budget (Membuffer + Memtable target).
  size_t memory_budget_bytes = 16u << 20;

  // Fraction of the budget given to the Membuffer (paper: 1/4).
  double membuffer_fraction = 0.25;

  // Disabling the Membuffer degenerates FloDB to the classic single-level
  // memory component ("No HT" variant, Figure 17).
  bool enable_membuffer = true;

  // Drain with skiplist multi-inserts (true) or one insert per entry
  // ("HT, simple insert SL" variant, Figure 17).
  bool use_multi_insert = true;

  // Scan machinery (§4.4).
  int scan_restart_threshold = 3;

  // The paper's low-concurrency optimization: a scan that starts while NO
  // other scan is running may still reuse the previous master's sequence
  // number up to this many times, skipping the Membuffer swap + full
  // drain. Such scans are serializable (they may miss updates still
  // sitting in the Membuffer), not linearizable — exactly the piggyback
  // guarantee. 0 (default) disables reuse: every master scan establishes
  // a fresh sequence number and is linearizable w.r.t. updates.
  int scan_master_reuse_limit = 0;

  // Persist immutable Memtables to the disk component. When false they
  // are dropped after the swap — the memory-component-only mode used by
  // Figure 17.
  bool enable_persistence = true;

  // Write-ahead logging for crash durability (§2.1). Log appends go
  // through a group-commit writer queue whose leader issues ONE fsync
  // covering every queued `WriteOptions::sync` writer (DESIGN.md §10).
  // Off by default like the paper's benchmarks.
  bool enable_wal = false;

  // Range-partitioning across independent FloDB instances
  // (ShardedKVStore::Open; DESIGN.md §8). 1 (the default) is exactly
  // today's single-instance behavior. Values < 1 are rejected; a
  // non-power-of-two count rounds UP to the next power of two (the
  // requested parallelism is a floor), capped at 256. Each shard gets
  // memory_budget_bytes / shards, a subdirectory of disk.path, its own
  // WAL, its own drain thread, and a slice of the compaction thread
  // budget (floor of one thread per shard). FloDB::Open itself only
  // accepts shards == 1; open a sharded store through
  // ShardedKVStore::Open.
  //
  // A WriteBatch that straddles shards commits via two-phase commit:
  // every touched shard durably logs a prepare record, the router fsyncs
  // a commit marker into its txn log, and only then does the batch
  // become visible — recovery replays it all-or-nothing. Merged scans
  // open all shard cursors under a router-level write fence, so a
  // snapshot never observes half of a cross-shard batch. Single-shard
  // batches and Put/Delete never pay the 2PC cost.
  int shards = 1;

  // Leading key bytes ignored by the shard router — for key schemas with
  // a constant prefix ("session:...") that would otherwise collapse every
  // key into one shard. 0 keeps routing order-preserving, which lets
  // range scans prune to the shards intersecting their bounds.
  size_t shard_key_prefix_skip = 0;

  DiskOptions disk;
};

}  // namespace flodb

#endif  // FLODB_CORE_OPTIONS_H_
