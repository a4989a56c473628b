// Figure 17: ablation of FloDB's own memory component with persistence
// DISABLED (immutable Memtables are dropped), isolating the in-memory
// write path:
//   * No_HT     — Membuffer disabled (classic single level)
//   * HT_simple — two levels, drain uses one insert per key
//   * HT_multi  — two levels, drain uses skiplist multi-insert
// Also reports the fraction of updates completing directly in the
// Membuffer (the boxed numbers in the paper's figure). Expected shape:
// No-HT degrades with memory size; both HT variants scale; multi-insert
// beats simple insert, most visibly with a single writer thread.

#include "bench_common.h"

namespace flodb::bench {
namespace {

struct Variant {
  const char* name;
  bool membuffer;
  bool multi_insert;
};

double RunPoint(const Variant& variant, size_t memory, int threads, const BenchConfig& config,
                double* membuffer_fraction) {
  FloDbOptions options;
  options.memory_budget_bytes = memory;
  options.enable_membuffer = variant.membuffer;
  options.use_multi_insert = variant.multi_insert;
  options.enable_persistence = false;  // memory component only
  std::unique_ptr<FloDB> db;
  Status s = FloDB::Open(options, &db);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    abort();
  }

  WorkloadSpec workload;
  workload.put_fraction = 1.0;
  workload.key_space = config.key_space * 4;
  workload.value_bytes = config.value_bytes;

  DriverOptions driver;
  driver.threads = threads;
  // Fixed-volume burst, like Figure 15: the figure isolates the memory
  // component, so the interesting regime is writes arriving faster than
  // the drain while the Membuffer still has room.
  const uint64_t burst_ops =
      static_cast<uint64_t>(EnvInt("FLODB_BENCH_BURST_OPS", 60'000));
  driver.ops_per_thread = burst_ops / static_cast<uint64_t>(threads);

  const DriverResult result = RunWorkload(db.get(), workload, driver);
  const StoreStats stats = db->GetStats();
  const uint64_t total = stats.membuffer_adds + stats.memtable_direct_adds;
  *membuffer_fraction =
      total > 0 ? static_cast<double>(stats.membuffer_adds) / static_cast<double>(total) : 0;
  return result.MopsPerSec();
}

}  // namespace
}  // namespace flodb::bench

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig17", "FloDB memory-component variants (persistence off)");

  const Variant variants[] = {
      {"No_HT", false, false},
      {"HT_simple", true, false},
      {"HT_multi", true, true},
  };

  struct Point {
    size_t memory;
    int threads;
  };
  const int max_threads = config.threads.empty() ? 4 : config.threads.back();
  const std::vector<Point> points = {
      {4u << 20, 1},             // single-writer column of the figure
      {4u << 20, max_threads},   // 1GB, 8t (scaled)
      {8u << 20, max_threads},   // 2GB, 8t
      {16u << 20, max_threads},  // 4GB, 8t
      {32u << 20, max_threads},  // 8GB, 8t
  };

  for (const Point& point : points) {
    for (const Variant& variant : variants) {
      double fraction = 0;
      const double mops = RunPoint(variant, point.memory, point.threads, config, &fraction);
      report.Add({{"variant", variant.name},
                  {"memory_mb", point.memory >> 20},
                  {"threads", point.threads},
                  {"mops", mops},
                  {"membuffer_pct", fraction * 100}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
