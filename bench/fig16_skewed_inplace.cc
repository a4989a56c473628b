// Figure 16: skewed mixed workload (98% of ops on 2% of the keys, 50%
// reads / 50% updates) vs memory component size. Expected shape: once the
// memory component exceeds the hot-set size, FloDB's IN-PLACE updates
// capture the entire hot set in memory and throughput takes off; the
// multi-versioned baselines keep filling memory with duplicates and
// flushing, at every size.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig16", "skewed 98/2 mixed 50r/50u, throughput vs memory size");

  const double hot_set_bytes = static_cast<double>(config.key_space) * 0.02 *
                               static_cast<double>(config.value_bytes + 40);
  printf("# hot set ~= %.0f KB; expect the FloDB takeoff above this size\n",
         hot_set_bytes / 1024);

  // One column per store plus a FloDB-nocache column: the skewed mix
  // also reads, so the block cache's share of the figure-16 takeoff is
  // visible next to the in-place-update effect.
  struct Column {
    StoreId id;
    long long cache_bytes;  // -1 = default
    std::string name;
  };
  std::vector<Column> columns;
  for (StoreId id : AllStores()) {
    columns.push_back({id, -1, StoreName(id)});
  }
  columns.push_back({StoreId::kFloDB, 0, "FloDB-nocache"});

  const std::vector<size_t> sizes = {256u << 10, 512u << 10, 1u << 20, 2u << 20,
                                     4u << 20,   8u << 20};
  const int threads = config.threads.empty() ? 4 : config.threads.back();
  for (size_t memory : sizes) {
    for (const Column& column : columns) {
      StoreInstance instance = OpenStore(column.id, config, memory, column.cache_bytes);
      LoadRandomOrder(instance.get(), config.key_space / 2, config.key_space,
                      config.value_bytes);
      instance->FlushAll();

      WorkloadSpec workload;
      workload.get_fraction = 0.5;
      workload.put_fraction = 0.5;
      workload.key_space = config.key_space;
      workload.value_bytes = config.value_bytes;
      workload.skewed = true;
      workload.hot_key_fraction = 0.02;
      workload.hot_access_fraction = 0.98;

      DriverOptions driver;
      driver.threads = threads;
      driver.seconds = config.seconds;

      const DriverResult result = RunWorkload(instance.get(), workload, driver);
      report.Add({{"store", column.name},
                  {"memory_kb", memory >> 10},
                  {"threads", threads},
                  {"mops", result.MopsPerSec()}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
