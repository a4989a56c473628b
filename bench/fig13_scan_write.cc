// Figure 13: mixed scan-write workload — 95% updates, 5% scans of 100
// keys — reported as KEY throughput (each scan touches scan_length keys,
// as in Golan-Gueta et al.). Expected shape: FloDB on top;
// HyperLevelDB competitive (efficient compaction => few files to merge).

#include "system_sweep.h"

int main(int argc, char** argv) {
  using namespace flodb::bench;
  SweepSpec spec;
  spec.figure_id = "fig13";
  spec.title = "scan-write 95% update / 5% scan(100), key-throughput (Mkeys/s) vs threads";
  spec.workload.put_fraction = 0.95;
  spec.workload.scan_fraction = 0.05;
  spec.workload.scan_length = 100;
  spec.init = InitRecipe::kHalfRandom;
  spec.metric = [](const DriverResult& r) { return r.MkeysPerSec(); };
  spec.metric_name = "mkeys_per_s";
  RunSystemSweep(spec, flodb::bench::BenchConfig::FromEnv(argc, argv));
  return 0;
}
