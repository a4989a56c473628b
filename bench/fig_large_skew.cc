// Value separation on a larger-than-memory skewed workload: A/B of
// value_separation_threshold = 0 (inline values, today's default) vs 256
// (WiscKey-style vlog, DESIGN.md §13) over a dataset ~10x the memory
// budget with 1KB values and zipfian access.
//
// Three phases per mode:
//   1. load   — sorted-spread full load of the key space, FlushAll;
//   2. churn  — one writer overwrites uniform-drawn keys for the
//      configured duration (uniform on purpose: zipfian writes collapse
//      inside the memory component and never exercise the disk layer),
//      then FlushAll quiesces compaction + vlog GC;
//      write-amp = (LSM flush+compaction bytes + vlog appends) / user
//      bytes, measured over the churn deltas only (the load is identical
//      in both modes);
//   3. read   — one reader issues zipfian point Gets, recording per-op
//      latency; p50/p99 come from the sorted sample.
//
// Separation pays off exactly here: churn compactions move ~30-byte
// pointers instead of 1KB payloads, so churn write-amp collapses, while
// the extra vlog hop costs reads a bounded constant.
// The fig_large_skew entry of ci/gates.json gates the separated/inline
// write-amp ratio and the p99 ratio.
//
// Env knobs (bench_common.h): FLODB_BENCH_SECONDS, FLODB_BENCH_KEYS
// (default sizes the dataset to ~10x memory), FLODB_BENCH_VALUE
// (default 1024), FLODB_BENCH_MEMORY.
//   FLODB_BENCH_VSEP_THRESHOLD  separation threshold for the B column
//                               (default 256)
//   FLODB_BENCH_ZIPF_THETA      zipfian skew (default 0.99)
//   --json out.json             machine-readable rows (also FLODB_BENCH_JSON)

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"

int main(int argc, char** argv) {
  using namespace flodb;
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  if (getenv("FLODB_BENCH_VALUE") == nullptr) {
    config.value_bytes = 1024;
  }
  if (getenv("FLODB_BENCH_KEYS") == nullptr) {
    // Dataset ~10x the memory budget (the larger-than-memory regime).
    config.key_space = 10 * static_cast<uint64_t>(config.memory_bytes) /
                       (kEncodedKeyBytes + config.value_bytes);
  }
  const int64_t sep_threshold = EnvInt("FLODB_BENCH_VSEP_THRESHOLD", 256);
  const double zipf_theta = EnvDouble("FLODB_BENCH_ZIPF_THETA", 0.99);

  Report report("fig_large_skew",
                "value separation A/B: zipfian churn + reads over a ~10x-memory dataset");
  report.Header({"mode", "churn w/s", "write_amp", "read/s", "p50 us", "p99 us", "vlog MB"});
  const bool json = !config.json_path.empty();

  for (const int64_t threshold : {int64_t{0}, sep_threshold}) {
    const char* mode = threshold == 0 ? "inline" : "separated";
    MemEnv env;
    FloDbOptions options;
    options.memory_budget_bytes = config.memory_bytes;
    options.disk.env = &env;
    options.disk.path = "/bench";
    // Shrunken level targets (fig_compaction's trick): the ~10x-memory
    // dataset spans L1..L3, so inline churn pays the full leveled
    // rewrite cascade that separation avoids.
    options.disk.sstable_target_bytes = 512 << 10;
    options.disk.l1_max_bytes = 2 << 20;
    options.disk.compaction_threads = 1;
    options.disk.value_separation_threshold = threshold;
    options.disk.vlog_file_target_bytes = 1 << 20;
    std::unique_ptr<FloDB> db;
    if (Status s = FloDB::Open(options, &db); !s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }

    // Phase 1: full load (spread order), quiesced.
    const std::string value(config.value_bytes, 'v');
    for (uint64_t i = 0; i < config.key_space; ++i) {
      if (!db->Put(Slice(EncodeKey(SpreadKey(i, config.key_space))), Slice(value)).ok()) {
        fprintf(stderr, "load failed\n");
        return 1;
      }
    }
    if (!db->FlushAll().ok()) {
      fprintf(stderr, "load flush failed\n");
      return 1;
    }
    const StoreStats loaded = db->GetStats();

    // Phase 2: zipfian overwrite churn.
    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    uint64_t churn_writes = 0;
    const uint64_t churn_start = NowNanos();
    std::thread writer([&] {
      // Uniform churn: zipfian writes mostly collapse inside the memory
      // component (hot keys overwrite in place before ever persisting),
      // which hides exactly the leveled rewrite cascade this figure
      // measures. Uniform overwrites make every churn byte reach the
      // disk layer; the READS below are the skewed part.
      Random64 rng(config.key_space ^ 0x5eed);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = SpreadKey(rng.Uniform(config.key_space), config.key_space);
        if (!db->Put(Slice(EncodeKey(key)), Slice(value)).ok()) {
          failed.store(true);
          break;
        }
        ++churn_writes;
      }
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(config.seconds * 1000)));
    stop.store(true);
    writer.join();
    const double churn_elapsed = SecondsSince(churn_start);
    if (failed.load() || !db->FlushAll().ok()) {
      fprintf(stderr, "churn phase failed\n");
      return 1;
    }
    // Drain vlog GC to the same quiesced steady state FlushAll gives
    // compaction, so the read phase measures reads, not background GC.
    for (bool performed = true; performed;) {
      performed = false;
      if (!db->CompactValueLogGarbage(&performed).ok()) {
        fprintf(stderr, "vlog GC drain failed\n");
        return 1;
      }
    }

    // Churn-only write amplification, vlog appends included: every byte
    // the storage layer wrote on behalf of the churn's user bytes.
    const StoreStats churned = db->GetStats();
    const double user_bytes = static_cast<double>(churn_writes) *
                              static_cast<double>(kEncodedKeyBytes + config.value_bytes);
    const double storage_bytes = static_cast<double>(
        (churned.disk.bytes_flushed - loaded.disk.bytes_flushed) +
        (churned.disk.bytes_compacted_out - loaded.disk.bytes_compacted_out) +
        (churned.disk.vlog_bytes_written - loaded.disk.vlog_bytes_written));
    const double write_amp = user_bytes > 0 ? storage_bytes / user_bytes : 0.0;

    // Phase 3: zipfian point reads with per-op latency.
    std::vector<uint64_t> latencies_us;
    latencies_us.reserve(1 << 20);
    {
      ZipfianGenerator zipf(config.key_space, zipf_theta);
      Random64 rng(config.key_space ^ 0xbeef);
      std::string read_value;
      const uint64_t read_start = NowNanos();
      const uint64_t deadline =
          read_start + static_cast<uint64_t>(config.seconds * 1e9);
      while (NowNanos() < deadline) {
        const uint64_t key = SpreadKey(zipf.Next(rng), config.key_space);
        const uint64_t op_start = NowNanos();
        const Status s = db->Get(Slice(EncodeKey(key)), &read_value);
        if (!s.ok()) {
          fprintf(stderr, "read failed: %s\n", s.ToString().c_str());
          return 1;
        }
        latencies_us.push_back((NowNanos() - op_start) / 1000);
      }
    }
    if (latencies_us.empty()) {
      fprintf(stderr, "no reads completed\n");
      return 1;
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    const double reads = static_cast<double>(latencies_us.size());
    const double reads_per_sec = reads / config.seconds;
    const double p50_us = static_cast<double>(latencies_us[latencies_us.size() / 2]);
    const double p99_us =
        static_cast<double>(latencies_us[latencies_us.size() * 99 / 100]);
    const double writes_per_sec = static_cast<double>(churn_writes) / churn_elapsed;
    const double vlog_mb = static_cast<double>(churned.disk.vlog_bytes) / (1 << 20);

    report.Row({mode, Report::Fmt(writes_per_sec, 0), Report::Fmt(write_amp, 2),
                Report::Fmt(reads_per_sec, 0), Report::Fmt(p50_us, 1), Report::Fmt(p99_us, 1),
                Report::Fmt(vlog_mb, 1)});
    report.Csv({mode, Report::Fmt(writes_per_sec, 1), Report::Fmt(write_amp, 3),
                Report::Fmt(reads_per_sec, 1), Report::Fmt(p50_us, 1), Report::Fmt(p99_us, 1)});
    if (json) {
      // Mode-suffixed store labels (the fig10 "FloDB-nocache" idiom) so
      // the baseline gate's (store, threads, shards) join keeps the two
      // rows distinct.
      report.JsonRow(
          {{"store", threshold == 0 ? "FloDB-inline" : "FloDB-vlog"}, {"mode", mode}},
          {{"threads", 1.0},
           {"shards", 1.0},
           {"mops", reads_per_sec / 1e6},
           {"threshold", static_cast<double>(threshold)},
           {"keys", static_cast<double>(config.key_space)},
           {"value_bytes", static_cast<double>(config.value_bytes)},
           {"churn_writes", static_cast<double>(churn_writes)},
           {"write_amp", write_amp},
           {"reads", reads},
           {"read_p50_us", p50_us},
           {"read_p99_us", p99_us},
           {"vlog_bytes_written",
            static_cast<double>(churned.disk.vlog_bytes_written)},
           {"vlog_gc_rewrites", static_cast<double>(churned.disk.vlog_gc_rewrites)},
           {"vlog_garbage_bytes", static_cast<double>(churned.disk.vlog_garbage_bytes)}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
