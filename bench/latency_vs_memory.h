// Shared driver for Figures 3 and 4: RocksDB-like store, readwhilewriting
// workload (N readers + 1 writer), median read/write latency as the
// memory component grows, normalized to the smallest size.

#ifndef FLODB_BENCH_LATENCY_VS_MEMORY_H_
#define FLODB_BENCH_LATENCY_VS_MEMORY_H_

#include "bench_common.h"

namespace flodb::bench {

inline void RunLatencyVsMemory(const char* figure_id, const char* title,
                               BaselineMemTable::Kind kind, const BenchConfig& config) {
  Report report(figure_id, title);

  // Stand-ins for the paper's 128MB..8GB sweep.
  const std::vector<size_t> sizes = {256u << 10, 512u << 10, 1u << 20, 2u << 20,
                                     4u << 20,   8u << 20};
  double read_base = 0, write_base = 0;
  for (size_t memory : sizes) {
    StoreInstance instance;
    instance.mem_env = std::make_unique<MemEnv>();
    instance.throttled_env =
        std::make_unique<ThrottledEnv>(instance.mem_env.get(), config.disk_mbps << 20);
    DiskOptions disk;
    disk.env = instance.throttled_env.get();
    disk.path = "/bench";
    disk.sstable_target_bytes = 1 << 20;
    std::unique_ptr<BaselineStore> db;
    Status s = BaselineStore::Open(BaselineOptions::RocksDB(memory, disk, kind), &db);
    instance.store = std::move(db);
    if (!s.ok()) {
      fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      abort();
    }

    // Paper: readwhilewriting on a 1M-entry database (scaled).
    LoadRandomOrder(instance.get(), config.key_space / 2, config.key_space,
                    config.value_bytes);

    WorkloadSpec readers;
    readers.get_fraction = 1.0;
    readers.key_space = config.key_space;
    readers.value_bytes = config.value_bytes;
    WorkloadSpec writer;
    writer.put_fraction = 1.0;
    writer.key_space = config.key_space;
    writer.value_bytes = config.value_bytes;

    DriverOptions driver;
    driver.threads = 4;  // paper: 8 readers + 1 writer (scaled)
    driver.seconds = config.seconds;
    driver.record_latency = true;
    driver.two_role = true;
    driver.writer_spec = writer;

    const DriverResult result = RunWorkload(instance.get(), readers, driver);
    const double read_us = static_cast<double>(result.read_p50) / 1000.0;
    const double write_us = static_cast<double>(result.write_p50) / 1000.0;
    if (read_base == 0) {
      read_base = read_us > 0 ? read_us : 1;
      write_base = write_us > 0 ? write_us : 1;
    }
    report.Add({{"memory_kb", memory >> 10},
                {"read_p50_us", read_us},
                {"write_p50_us", write_us},
                {"read_norm", read_us / read_base},
                {"write_norm", write_us / write_base}});
  }
  report.WriteJson(config.json_path);
}

}  // namespace flodb::bench

#endif  // FLODB_BENCH_LATENCY_VS_MEMORY_H_
