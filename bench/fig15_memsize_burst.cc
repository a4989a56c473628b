// Figure 15: write-only BURST (short, so the run is not bound by steady-
// state persistence) vs memory component size, all systems. Expected
// shape: baselines degrade as memory grows (bigger skiplist, slower
// inserts); FloDB improves/holds (writes absorbed by the fast Membuffer).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig15", "write-only burst, throughput vs memory component size");

  // Fixed-VOLUME burst (paper: a 10s burst "empirically chosen such that
  // the system is not limited to its steady-state write throughput"): the
  // written volume must straddle the memory sizes so larger components
  // absorb the whole burst at memory speed.
  const uint64_t burst_ops =
      static_cast<uint64_t>(EnvInt("FLODB_BENCH_BURST_OPS", 60'000));
  printf("# burst: %llu writes (~%llu KB) per data point\n",
         static_cast<unsigned long long>(burst_ops),
         static_cast<unsigned long long>(burst_ops * (config.value_bytes + 40) >> 10));

  // Stand-ins for the paper's 128MB..192GB sweep.
  const std::vector<size_t> sizes = {1u << 20, 2u << 20, 4u << 20, 8u << 20,
                                     16u << 20, 32u << 20};
  const int threads = config.threads.empty() ? 4 : config.threads.back();
  for (size_t memory : sizes) {
    for (StoreId id : AllStores()) {
      StoreInstance instance = OpenStore(id, config, memory);

      WorkloadSpec workload;
      workload.put_fraction = 1.0;
      // Burst across a large key space so writes are mostly distinct keys.
      workload.key_space = config.key_space * 4;
      workload.value_bytes = config.value_bytes;

      DriverOptions driver;
      driver.threads = threads;
      driver.ops_per_thread = burst_ops / static_cast<uint64_t>(threads);

      const DriverResult result = RunWorkload(instance.get(), workload, driver);
      report.Add({{"store", StoreName(id)},
                  {"memory_kb", memory >> 10},
                  {"threads", threads},
                  {"mops", result.MopsPerSec()}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
