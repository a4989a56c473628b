// Shared driver for the system-comparison figures (9-13): every store,
// swept over thread counts, with a per-figure workload and initialization
// recipe. Records one row per (threads, store) cell: the figure's metric
// (Mops/s unless the spec names another), p50/p99 read and write
// latencies, and the block-cache hit rate.

#ifndef FLODB_BENCH_SYSTEM_SWEEP_H_
#define FLODB_BENCH_SYSTEM_SWEEP_H_

#include <functional>

#include "bench_common.h"

namespace flodb::bench {

enum class InitRecipe { kFresh, kHalfRandom, kFullSequential };

struct SweepSpec {
  const char* figure_id;
  const char* title;
  WorkloadSpec workload;
  InitRecipe init = InitRecipe::kHalfRandom;
  bool two_role = false;
  WorkloadSpec writer_spec;
  // Metric extractor and its row field; default = Mops/s as "mops".
  std::function<double(const DriverResult&)> metric;
  const char* metric_name = "mops";
};

// One column of the sweep: a store kind plus (for FloDB) an optional
// block-cache-size override (-1 = DiskOptions default).
struct SweepColumn {
  StoreId id;
  long long cache_bytes = -1;
  std::string name;
};

inline std::vector<SweepColumn> SweepColumns(const BenchConfig& config) {
  std::vector<SweepColumn> columns;
  for (StoreId id : AllStores()) {
    columns.push_back(SweepColumn{id, -1, StoreName(id)});
    if (id == StoreId::kFloDB) {
      // FLODB_BENCH_CACHE: one extra FloDB column per listed block-cache
      // size, so the cache lever shows up next to the default (CI pins
      // "0" for a FloDB-nocache column in the fig10 gate).
      for (long long cache : config.cache_bytes_list) {
        SweepColumn column{id, cache, StoreName(id)};
        column.name +=
            cache == 0 ? "-nocache" : "-cache" + std::to_string(cache >> 10) + "KB";
        columns.push_back(std::move(column));
      }
    }
  }
  return columns;
}

inline void RunSystemSweep(const SweepSpec& spec, const BenchConfig& config) {
  Report report(spec.figure_id, spec.title);
  auto metric = spec.metric ? spec.metric
                            : [](const DriverResult& r) { return r.MopsPerSec(); };

  for (int threads : config.threads) {
    for (const SweepColumn& column : SweepColumns(config)) {
      StoreInstance instance =
          OpenStore(column.id, config, config.memory_bytes, column.cache_bytes);
      switch (spec.init) {
        case InitRecipe::kFresh:
          break;
        case InitRecipe::kHalfRandom:
          LoadRandomOrder(instance.get(), config.key_space / 2, config.key_space,
                          config.value_bytes);
          instance->FlushAll();
          break;
        case InitRecipe::kFullSequential:
          LoadSequential(instance.get(), config.key_space, config.value_bytes);
          instance->FlushAll();
          break;
      }

      WorkloadSpec workload = spec.workload;
      workload.key_space = config.key_space;
      workload.value_bytes = config.value_bytes;

      DriverOptions driver;
      driver.threads = threads;
      driver.seconds = config.seconds;
      driver.two_role = spec.two_role;
      driver.writer_spec = spec.writer_spec;
      driver.writer_spec.key_space = config.key_space;
      driver.writer_spec.value_bytes = config.value_bytes;
      driver.record_latency = true;

      const DriverResult result = RunWorkload(instance.get(), workload, driver);
      report.Add({{"store", column.name},
                  {"threads", threads},
                  {spec.metric_name, metric(result)},
                  {"read_p50_ns", result.read_p50},
                  {"read_p99_ns", result.read_p99},
                  {"write_p50_ns", result.write_p50},
                  {"write_p99_ns", result.write_p99},
                  {"block_cache_hit_rate", instance->GetStats().disk.BlockCacheHitRate()}});
    }
  }
  report.WriteJson(config.json_path);
}

}  // namespace flodb::bench

#endif  // FLODB_BENCH_SYSTEM_SWEEP_H_
