// Read throughput vs block-cache size, uniform and zipfian key draws,
// after a full sequential load + flush (the fig10 on-disk layout). The
// cache lever this PR adds: with block_cache_bytes = 0 every Get pays
// the Env read + CRC + copy for its data block; with a warm cache the
// zipfian hot set is served from memory. Expected shape: the zipfian
// column takes off as soon as the cache holds the hot blocks; the
// uniform column needs the cache to approach the dataset size.
//
// JSON rows (one per cell) carry mops + the measured block-cache hit
// rate; the fig_read_cached entry of ci/gates.json gates the zipfian hit
// rate in CI.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig_read_cached", "read-only throughput vs block cache size");

  std::vector<long long> cache_sizes = config.cache_bytes_list;
  if (cache_sizes.empty()) {
    cache_sizes = {0, 256 << 10, 1 << 20, 4 << 20, 16 << 20};
  }
  const int threads = config.threads.empty() ? 2 : config.threads.back();

  struct Dist {
    const char* name;
    KeyDistribution distribution;
  };
  const Dist dists[] = {{"uniform", KeyDistribution::kUniform},
                        {"zipfian", KeyDistribution::kZipfian}};

  // Per-distribution throughput at cache size 0 and at the last swept
  // size, for the closing speedup line.
  double baseline_mops[2] = {0, 0};
  double last_mops[2] = {0, 0};

  for (long long cache : cache_sizes) {
    for (size_t d = 0; d < 2; ++d) {
      StoreInstance instance =
          OpenStore(StoreId::kFloDB, config, config.memory_bytes, cache);
      LoadSequential(instance.get(), config.key_space, config.value_bytes);
      instance->FlushAll();

      WorkloadSpec workload;
      workload.get_fraction = 1.0;
      workload.key_space = config.key_space;
      workload.value_bytes = config.value_bytes;
      workload.distribution = dists[d].distribution;

      DriverOptions driver;
      driver.threads = threads;
      driver.seconds = config.seconds;

      // Warm-up pass (untimed, stats suppressed for the ratio below):
      // fills the cache with the workload's hot set so the measured pass
      // reflects steady state, not cold misses.
      DriverOptions warmup = driver;
      warmup.seconds = config.seconds * 0.5;
      warmup.read_options.fill_stats = false;
      RunWorkload(instance.get(), workload, warmup);

      const flodb::StoreStats before = instance->GetStats();
      const DriverResult result = RunWorkload(instance.get(), workload, driver);
      const flodb::StoreStats after = instance->GetStats();

      const uint64_t hits = after.disk.block_cache_hits - before.disk.block_cache_hits;
      const uint64_t misses = after.disk.block_cache_misses - before.disk.block_cache_misses;
      const double hit_rate =
          hits + misses == 0 ? 0.0
                             : static_cast<double>(hits) / static_cast<double>(hits + misses);
      const double mops = result.MopsPerSec();
      if (cache == 0) {
        baseline_mops[d] = mops;
      }
      last_mops[d] = mops;

      const std::string cache_label = cache == 0 ? "off" : std::to_string(cache >> 10) + "KB";
      report.Add({{"store", std::string("FloDB-") + dists[d].name + "-" + cache_label},
                  {"dist", dists[d].name},
                  {"threads", threads},
                  {"cache_bytes", cache},
                  {"mops", mops},
                  {"hit_rate", hit_rate}});
    }
  }

  // The acceptance lens: warm-cache speedup over cache-off per
  // distribution at the largest swept size.
  for (size_t d = 0; d < 2; ++d) {
    if (baseline_mops[d] > 0) {
      printf("# %s speedup at %lldKB cache vs cache-off: %.2fx\n", dists[d].name,
             cache_sizes.back() >> 10, last_mops[d] / baseline_mops[d]);
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
