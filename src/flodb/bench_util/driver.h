// ThroughputDriver: runs N threads against a KVStore for a fixed duration
// and aggregates throughput / per-op-type latency — the engine behind
// every system-level figure (9-16).

#ifndef FLODB_BENCH_UTIL_DRIVER_H_
#define FLODB_BENCH_UTIL_DRIVER_H_

#include <cstdint>
#include <vector>

#include "flodb/bench_util/latency.h"
#include "flodb/bench_util/workload.h"
#include "flodb/core/kv_store.h"

namespace flodb::bench {

struct DriverOptions {
  int threads = 1;
  double seconds = 2.0;
  bool record_latency = false;
  // Figure 12 shape: thread 0 uses `writer_spec`, the rest use the main
  // spec (set `two_role` true).
  bool two_role = false;
  WorkloadSpec writer_spec;
  // Burst mode (Figures 15/17): when non-zero each thread performs exactly
  // this many operations instead of running for `seconds`.
  uint64_t ops_per_thread = 0;
  // Per-operation options threaded to the store (sync WAL commits, stat
  // suppression).
  WriteOptions write_options;
  ReadOptions read_options;
};

struct DriverResult {
  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;        // includes entries committed via batch ops
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t batch_commits = 0;  // KVStore::Write calls from kBatchPut ops
  uint64_t keys_accessed = 0;  // scans count scan_length keys (§5.2)
  double elapsed_seconds = 0;

  double MopsPerSec() const {
    return elapsed_seconds > 0 ? static_cast<double>(ops) / elapsed_seconds / 1e6 : 0;
  }
  double MkeysPerSec() const {
    return elapsed_seconds > 0 ? static_cast<double>(keys_accessed) / elapsed_seconds / 1e6 : 0;
  }
  double WriteMopsPerSec() const {
    return elapsed_seconds > 0 ? static_cast<double>(puts + deletes) / elapsed_seconds / 1e6 : 0;
  }
  double ScanMopsPerSec() const {
    return elapsed_seconds > 0 ? static_cast<double>(scans) / elapsed_seconds / 1e6 : 0;
  }

  // Populated when record_latency is set (nanoseconds).
  uint64_t read_p50 = 0, read_p99 = 0;
  uint64_t write_p50 = 0, write_p99 = 0;
};

DriverResult RunWorkload(KVStore* store, const WorkloadSpec& spec, const DriverOptions& options);

}  // namespace flodb::bench

#endif  // FLODB_BENCH_UTIL_DRIVER_H_
