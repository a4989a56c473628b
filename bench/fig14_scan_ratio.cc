// Figure 14: FloDB, impact of the scan ratio (2%..50%) on operation- and
// key-throughput at a fixed thread count. Expected shape: ops/s falls as
// the scan ratio rises (scans are heavier), while keys/s RISES (each scan
// contributes scan_length key accesses and fewer writes interfere).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig14", "FloDB: scan ratio vs operation- and key-throughput");

  const int threads = config.threads.empty() ? 4 : config.threads.back();
  for (int scan_pct : {2, 5, 10, 25, 50}) {
    StoreInstance instance = OpenStore(StoreId::kFloDB, config, config.memory_bytes);
    LoadRandomOrder(instance.get(), config.key_space / 2, config.key_space,
                    config.value_bytes);
    instance->FlushAll();

    WorkloadSpec workload;
    workload.scan_fraction = scan_pct / 100.0;
    workload.put_fraction = 1.0 - workload.scan_fraction;
    workload.scan_length = 100;
    workload.key_space = config.key_space;
    workload.value_bytes = config.value_bytes;

    DriverOptions driver;
    driver.threads = threads;
    driver.seconds = config.seconds;

    const DriverResult result = RunWorkload(instance.get(), workload, driver);
    report.Add({{"store", "FloDB"},
                {"threads", threads},
                {"scan_pct", scan_pct},
                {"write_mops", result.WriteMopsPerSec()},
                {"scan_mops", result.ScanMopsPerSec()},
                {"mops", result.MopsPerSec()},
                {"mkeys_per_s", result.MkeysPerSec()}});
  }
  report.WriteJson(config.json_path);
  return 0;
}
