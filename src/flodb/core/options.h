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

  DiskOptions disk;
};

}  // namespace flodb

#endif  // FLODB_CORE_OPTIONS_H_
