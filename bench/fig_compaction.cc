// Leveled compaction under sustained overwrite churn: write-amp,
// space-amp, and read throughput while the compactor is busy.
//
// Two phases per writer count:
//   1. churn  — writers overwrite a fixed key space for the configured
//      duration, then FlushAll() quiesces compactions; write-amp =
//      (bytes flushed + compaction output bytes) / user bytes and
//      space-amp = on-disk bytes / live-data estimate are measured at
//      the quiesced steady state;
//   2. read-under-churn — one writer keeps overwriting while the same
//      number of reader threads issue point Gets; read mops is the
//      number CI gates (the fig_compaction entry of ci/gates.json also
//      bounds both amplification factors).
//
// Without leveled compaction this workload degrades without bound: every
// overwrite round adds a full copy of the key space (space-amp ~= number
// of rounds) and reads wade through every run. The shrunken level
// targets below force the full L0 -> L1 -> L2 pipeline at bench scale.
//
// Env knobs (bench_common.h): FLODB_BENCH_SECONDS, FLODB_BENCH_THREADS
// (default "1,4"), FLODB_BENCH_KEYS, FLODB_BENCH_VALUE.
//   FLODB_BENCH_L1_MB        L1 size target in MB (default 2)
//   FLODB_BENCH_LEVEL_RATIO  level size multiplier (default 4)
//   --json out.json          machine-readable rows (also FLODB_BENCH_JSON)

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"

int main(int argc, char** argv) {
  using namespace flodb;
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  if (getenv("FLODB_BENCH_THREADS") == nullptr) {
    config.threads = {1, 4};
  }
  const uint64_t l1_mb = static_cast<uint64_t>(EnvInt("FLODB_BENCH_L1_MB", 2));
  const int level_ratio = static_cast<int>(EnvInt("FLODB_BENCH_LEVEL_RATIO", 4));

  Report report("fig_compaction",
                "overwrite churn: write-amp, space-amp, reads under compaction");
  report.Header(
      {"threads", "writes/s", "write_amp", "space_amp", "read mops", "files/level"});
  const bool json = !config.json_path.empty();

  for (const int threads : config.threads) {
    MemEnv env;
    FloDbOptions options;
    options.memory_budget_bytes = config.memory_bytes;
    options.disk.env = &env;
    options.disk.path = "/bench";
    options.disk.sstable_target_bytes = 1 << 20;
    options.disk.l1_max_bytes = l1_mb << 20;
    options.disk.level_size_multiplier = level_ratio;
    options.disk.compaction_threads = 1;
    std::unique_ptr<FloDB> db;
    if (Status s = FloDB::Open(options, &db); !s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }

    // Phase 1: overwrite churn.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> total_writes{0};
    std::atomic<bool> failed{false};
    const std::string value(config.value_bytes, 'v');
    auto churn_writer = [&](int t) {
      uint64_t local = 0;
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const uint64_t key = SpreadKey((static_cast<uint64_t>(t) * 7'919 + i) % config.key_space,
                                       config.key_space);
        if (!db->Put(Slice(EncodeKey(key)), Slice(value)).ok()) {
          failed.store(true);
          break;
        }
        ++local;
      }
      total_writes.fetch_add(local, std::memory_order_relaxed);
    };
    const uint64_t churn_start = NowNanos();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(churn_writer, t);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(config.seconds * 1000)));
    stop.store(true);
    for (std::thread& w : workers) {
      w.join();
    }
    const double churn_elapsed = SecondsSince(churn_start);
    if (failed.load() || !db->FlushAll().ok()) {
      fprintf(stderr, "churn phase failed\n");
      return 1;
    }

    // Steady-state amplification, measured with compactions quiesced.
    const StoreStats stats = db->GetStats();
    const uint64_t writes = total_writes.load();
    const double writes_per_sec = static_cast<double>(writes) / churn_elapsed;
    const double user_bytes =
        static_cast<double>(writes) * static_cast<double>(8 + config.value_bytes);
    const double write_amp =
        user_bytes > 0
            ? static_cast<double>(stats.disk.bytes_flushed + stats.disk.bytes_compacted_out) /
                  user_bytes
            : 0.0;
    uint64_t disk_bytes = 0;
    for (const uint64_t b : stats.disk.bytes_per_level) {
      disk_bytes += b;
    }
    const uint64_t live_keys = std::min<uint64_t>(writes, config.key_space);
    const double live_bytes =
        static_cast<double>(live_keys) * static_cast<double>(8 + config.value_bytes);
    const double space_amp =
        live_bytes > 0 ? static_cast<double>(disk_bytes) / live_bytes : 0.0;
    std::string levels;
    for (const int count : stats.disk.files_per_level) {
      levels += (levels.empty() ? "" : "/") + std::to_string(count);
    }

    // Phase 2: point reads racing one churn writer.
    stop.store(false);
    std::atomic<uint64_t> total_reads{0};
    std::thread churn(churn_writer, threads);
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        uint64_t local = 0;
        std::string read_value;
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const uint64_t key = SpreadKey(
              (static_cast<uint64_t>(t) * 104'729 + i) % config.key_space, config.key_space);
          const Status s = db->Get(Slice(EncodeKey(key)), &read_value);
          if (!s.ok() && !s.IsNotFound()) {
            failed.store(true);
            break;
          }
          ++local;
        }
        total_reads.fetch_add(local, std::memory_order_relaxed);
      });
    }
    const uint64_t read_start = NowNanos();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(config.seconds * 1000)));
    stop.store(true);
    churn.join();
    for (std::thread& r : readers) {
      r.join();
    }
    const double read_elapsed = SecondsSince(read_start);
    if (failed.load()) {
      fprintf(stderr, "read phase failed\n");
      return 1;
    }
    const uint64_t reads = total_reads.load();
    const double read_mops = static_cast<double>(reads) / read_elapsed / 1e6;

    report.Row({std::to_string(threads), Report::Fmt(writes_per_sec, 0),
                Report::Fmt(write_amp, 2), Report::Fmt(space_amp, 2),
                Report::Fmt(read_mops, 3), levels});
    report.Csv({std::to_string(threads), Report::Fmt(writes_per_sec, 1),
                Report::Fmt(write_amp, 3), Report::Fmt(space_amp, 3),
                Report::Fmt(read_mops, 4)});
    if (json) {
      report.JsonRow({{"store", "FloDB"}},
                     {{"threads", static_cast<double>(threads)},
                      {"shards", 1.0},
                      {"mops", read_mops},
                      {"write_amp", write_amp},
                      {"space_amp", space_amp},
                      {"writes", static_cast<double>(writes)},
                      {"reads", static_cast<double>(reads)},
                      {"compactions", static_cast<double>(stats.disk.compactions)}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
