// Figure 5: raw concurrent hash table (the Membuffer's CLHT-style table)
// on a mixed read-write workload, threads x dataset sizes. Expected
// shape: throughput roughly flat across dataset sizes (O(1) buckets) and
// one-to-two orders of magnitude above the skiplist (Figure 7).

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/mem/membuffer.h"

namespace flodb::bench {
namespace {

double RunPoint(uint64_t dataset, int threads, double seconds) {
  MemBuffer::Options options;
  options.capacity_bytes = static_cast<size_t>(dataset) * 96;  // never reject
  options.partition_bits = 4;
  options.avg_entry_bytes_hint = 48;
  MemBuffer buffer(options);

  // Preload half the keys.
  KeyBuf buf;
  for (uint64_t i = 0; i < dataset / 2; ++i) {
    buffer.Add(buf.Set(SpreadKey(i * 2, dataset)), Slice("12345678"), ValueType::kValue);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 77 + 1);
      KeyBuf kb;
      std::string value;
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = SpreadKey(rng.Uniform(dataset), dataset);
        if (rng.OneIn(2)) {
          buffer.Get(kb.Set(key), &value, nullptr);
        } else {
          buffer.Add(kb.Set(key), Slice("12345678"), ValueType::kValue);
        }
        ++ops;
      }
      total_ops.fetch_add(ops);
    });
  }
  const uint64_t start = NowNanos();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  return static_cast<double>(total_ops.load()) / SecondsSince(start) / 1e6;
}

}  // namespace
}  // namespace flodb::bench

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig05", "concurrent hash table throughput (Mops/s), threads x dataset size");

  // Stand-ins for the paper's 32K / 1M / 33M / 1B entries.
  const std::vector<uint64_t> datasets = {32'000, 262'144, 1'048'576};
  for (int threads : config.threads) {
    for (uint64_t dataset : datasets) {
      report.Add({{"threads", threads},
                  {"dataset", dataset},
                  {"mops", RunPoint(dataset, threads, config.seconds)}});
    }
  }
  report.WriteJson(config.json_path);
  return 0;
}
