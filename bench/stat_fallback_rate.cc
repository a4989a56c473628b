// §5.2 (text claim): "in all of our experiments, the ratio of fallback
// scans to total completed scans was less than 1%". Reproduced across a
// sweep of scan ranges, memory sizes and thread counts.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("stat_fallback", "FloDB fallback-scan rate across scan sweeps");

  const int max_threads = config.threads.empty() ? 4 : config.threads.back();
  for (size_t scan_len : {10u, 100u, 1000u}) {
    for (size_t memory : {512u << 10, 2u << 20}) {
      for (int threads : {2, max_threads}) {
        StoreInstance instance = OpenStore(StoreId::kFloDB, config, memory);
        LoadRandomOrder(instance.get(), config.key_space / 2, config.key_space,
                        config.value_bytes);

        WorkloadSpec workload;
        workload.put_fraction = 0.95;
        workload.scan_fraction = 0.05;
        workload.scan_length = scan_len;
        workload.key_space = config.key_space;
        workload.value_bytes = config.value_bytes;

        DriverOptions driver;
        driver.threads = threads;
        driver.seconds = config.seconds;

        RunWorkload(instance.get(), workload, driver);
        const flodb::StoreStats stats = instance->GetStats();
        const double rate = stats.scans > 0 ? 100.0 * static_cast<double>(stats.fallback_scans) /
                                                  static_cast<double>(stats.scans)
                                            : 0;
        report.Add({{"store", "FloDB"},
                    {"scan_len", scan_len},
                    {"memory_kb", memory >> 10},
                    {"threads", threads},
                    {"scans", stats.scans},
                    {"restarts", stats.scan_restarts},
                    {"fallbacks", stats.fallback_scans},
                    {"fallback_pct", rate}});
      }
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
