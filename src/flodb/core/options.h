// FloDbOptions: tuning knobs of the two-tier memory component.
//
// Defaults reflect the paper's configuration scaled to test size: the
// memory budget splits 1/4 Membuffer : 3/4 Memtable (§5.1), multi-insert
// draining. The scan protocol (§4.4) has no knobs: its election rule and
// restart limit are fixed in FloDB (DESIGN.md §4).

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
