// Sync-write throughput vs writer count under group commit: every writer
// issues sync=true puts, and the writer queue's leader covers every
// queued writer with one fsync (DESIGN.md §10). MemEnv makes fsync free,
// which would hide the entire effect, so the store runs over a
// FaultInjectionEnv with an injected fsync latency standing in for a real
// device.
//
// Expected shape: one writer pays one fsync per write; more writers share
// each fsync, so throughput scales with the writer count until the fsync
// is amortized away. CI gates the 8-writer rate at >= 2x the 1-writer
// rate with <= 0.5 syncs/write, plus a conservative absolute floor
// (ci/bench_baselines/); the fig_sync_write entry of ci/gates.json.
//
// Env knobs (bench_common.h): FLODB_BENCH_SECONDS, FLODB_BENCH_THREADS
// (default "1,2,4,8" here), FLODB_BENCH_KEYS, FLODB_BENCH_VALUE.
//   FLODB_BENCH_SYNC_MICROS  injected fsync latency (default 100)
//   --json out.json          machine-readable rows (also FLODB_BENCH_JSON)

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/disk/fault_env.h"

int main(int argc, char** argv) {
  using namespace flodb;
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  if (getenv("FLODB_BENCH_THREADS") == nullptr) {
    config.threads = {1, 2, 4, 8};
  }
  const int sync_micros = static_cast<int>(EnvInt("FLODB_BENCH_SYNC_MICROS", 100));

  const std::string title = "sync=true write throughput vs writer count, " +
                            std::to_string(sync_micros) + "us injected fsync, group commit";
  Report report("fig_sync_write", title);
  report.Header({"threads", "writes/s", "wal syncs", "syncs/write"});

  const bool json = !config.json_path.empty();
  for (const int threads : config.threads) {
    MemEnv base_env;
    FaultInjectionEnv fault_env(&base_env);
    fault_env.SetSyncDelayMicros(sync_micros);

    FloDbOptions options;
    options.memory_budget_bytes = config.memory_bytes;
    options.disk.env = &fault_env;
    options.disk.path = "/bench";
    options.disk.sstable_target_bytes = 1 << 20;
    options.enable_wal = true;
    std::unique_ptr<FloDB> db;
    if (Status s = FloDB::Open(options, &db); !s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total_writes{0};
    std::atomic<bool> failed{false};
    const uint64_t start = NowNanos();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        WriteOptions synced;
        synced.sync = true;
        const std::string value(config.value_bytes, 'v');
        uint64_t local = 0;
        // Per-thread key stripes; the workload is the fsync, not key
        // contention.
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const uint64_t key =
              SpreadKey(static_cast<uint64_t>(t) * 1'000'000 + (i % config.key_space),
                        config.key_space * 8);
          if (!db->Put(synced, Slice(EncodeKey(key)), Slice(value)).ok()) {
            failed.store(true);
            break;
          }
          ++local;
        }
        total_writes.fetch_add(local, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(config.seconds * 1000)));
    stop.store(true);
    for (std::thread& w : workers) {
      w.join();
    }
    const double elapsed = SecondsSince(start);
    if (failed.load()) {
      fprintf(stderr, "sync write failed mid-run\n");
      return 1;
    }

    const StoreStats stats = db->GetStats();
    const uint64_t writes = total_writes.load();
    const double writes_per_sec = static_cast<double>(writes) / elapsed;
    const double syncs_per_write =
        writes > 0 ? static_cast<double>(stats.wal_syncs) / static_cast<double>(writes) : 0.0;
    report.Row({std::to_string(threads), Report::Fmt(writes_per_sec, 0),
                std::to_string(stats.wal_syncs), Report::Fmt(syncs_per_write, 3)});
    report.Csv({std::to_string(threads), Report::Fmt(writes_per_sec, 1),
                Report::Fmt(syncs_per_write, 4)});
    if (json) {
      report.JsonRow({{"store", "FloDB-sync-coalesce"}},
                     {{"threads", static_cast<double>(threads)},
                      {"shards", 1.0},
                      {"mops", writes_per_sec / 1e6},
                      {"wal_syncs", static_cast<double>(stats.wal_syncs)},
                      {"writes", static_cast<double>(writes)},
                      {"syncs_per_write", syncs_per_write}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
