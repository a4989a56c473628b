// Batch-write micro-bench (v2 API): write throughput and group-commit
// amortization vs WriteBatch size, FloDB with the WAL enabled. Each data
// point commits the same total number of entries through batches of
// 1/8/64/512; the interesting columns are entries/s (one WAL record and
// one contiguous seq range per commit amortize the per-commit costs) and
// the WAL-record amortization ratio reported from StoreStats.
//
// Env knobs (bench_common.h): FLODB_BENCH_SECONDS, FLODB_BENCH_THREADS,
// FLODB_BENCH_KEYS, FLODB_BENCH_VALUE, FLODB_BENCH_MEMORY,
// FLODB_BENCH_DISK_MBPS.
//   --json out.json          machine-readable rows (also FLODB_BENCH_JSON)

#include "bench_common.h"

namespace {

constexpr size_t kBatchSizes[] = {1, 8, 64, 512};

}  // namespace

int main(int argc, char** argv) {
  using namespace flodb;
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);

  Report report("fig_batch_write",
                "batched writes (WAL on), " + std::to_string(config.value_bytes) + "B values");
  report.Header({"store", "batch", "threads", "commits/s", "entries/s", "entries/record"});

  const bool json = !config.json_path.empty();
  for (const size_t batch_size : kBatchSizes) {
    for (const int threads : config.threads) {
      StoreInstance instance;
      instance.mem_env = std::make_unique<MemEnv>();
      instance.throttled_env =
          std::make_unique<ThrottledEnv>(instance.mem_env.get(), config.disk_mbps << 20);

      FloDbOptions options;
      options.memory_budget_bytes = config.memory_bytes;
      options.disk.env = instance.throttled_env.get();
      options.disk.path = "/bench";
      options.disk.sstable_target_bytes = 1 << 20;
      options.enable_wal = true;
      std::unique_ptr<FloDB> db;
      Status s = FloDB::Open(options, &db);
      if (!s.ok()) {
        fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
        return 1;
      }
      instance.store = std::move(db);

      WorkloadSpec spec;
      spec.batch_put_fraction = 1.0;
      spec.batch_entries = batch_size;
      spec.key_space = config.key_space;
      spec.value_bytes = config.value_bytes;

      DriverOptions driver;
      driver.threads = threads;
      driver.seconds = config.seconds;
      DriverResult result = RunWorkload(instance.get(), spec, driver);

      const StoreStats stats = instance.get()->GetStats();
      const double records = static_cast<double>(stats.wal_batch_records);
      const double amortization =
          records > 0 ? static_cast<double>(stats.batch_entries) / records : 0.0;
      const double commits_per_sec =
          static_cast<double>(result.batch_commits) / result.elapsed_seconds;
      const double entries_per_sec = static_cast<double>(result.puts) / result.elapsed_seconds;
      report.Row({"FloDB", std::to_string(batch_size), std::to_string(threads),
                  Report::Fmt(commits_per_sec, 0), Report::Fmt(entries_per_sec, 0),
                  Report::Fmt(amortization, 1)});
      report.Csv({"FloDB", std::to_string(batch_size), std::to_string(threads),
                  Report::Fmt(entries_per_sec, 1)});
      if (json) {
        report.JsonRow({{"store", "FloDB"}},
                       {{"threads", static_cast<double>(threads)},
                        {"batch", static_cast<double>(batch_size)},
                        {"mops", entries_per_sec / 1e6},
                        {"commits_per_sec", commits_per_sec},
                        {"entries_per_record", amortization}});
      }
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
