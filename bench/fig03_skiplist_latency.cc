// Figure 3: RocksDB-like store with a SKIPLIST memory component.
// readwhilewriting; median read and write latency vs memory component
// size, normalized to the smallest size. Expected shape: write latency
// grows with the component size (O(log n) sorted inserts), read latency
// roughly flat (most reads served from disk).

#include "latency_vs_memory.h"

int main(int argc, char** argv) {
  flodb::bench::RunLatencyVsMemory(
      "fig03", "RocksDB-like skiplist memtable: latency vs memory size",
      flodb::BaselineMemTable::Kind::kSkipList, flodb::bench::BenchConfig::FromEnv(argc, argv));
  return 0;
}
