// Figure 4: RocksDB-like store with a HASH TABLE memory component.
// readwhilewriting; median read and write latency vs memory component
// size. Expected shape: end-to-end write latency grows even faster than
// the skiplist's because flushes must collect + sort the whole component
// (linearithmic), stalling writers while the active table fills.

#include "latency_vs_memory.h"

int main(int argc, char** argv) {
  flodb::bench::RunLatencyVsMemory(
      "fig04", "RocksDB-like hash memtable: latency vs memory size",
      flodb::BaselineMemTable::Kind::kHashTable, flodb::bench::BenchConfig::FromEnv(argc, argv));
  return 0;
}
