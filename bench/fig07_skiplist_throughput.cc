// Figure 7: raw concurrent skiplist (the Memtable substrate) on a mixed
// read-write workload, threads x dataset sizes. Expected shape:
// throughput falls as the dataset grows (O(log n) operations) and sits
// one-to-two orders of magnitude below the hash table of Figure 5.

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/mem/skiplist.h"

namespace flodb::bench {
namespace {

double RunPoint(uint64_t dataset, int threads, double seconds) {
  ConcurrentArena arena(4u << 20);
  ConcurrentSkipList list(&arena);

  KeyBuf buf;
  for (uint64_t i = 0; i < dataset / 2; ++i) {
    list.Insert(buf.Set(SpreadKey(i * 2, dataset)), Slice("12345678"), i + 1,
                ValueType::kValue);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> seq{dataset};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Random64 rng(static_cast<uint64_t>(t) * 99 + 3);
      KeyBuf kb;
      std::string value;
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = SpreadKey(rng.Uniform(dataset), dataset);
        if (rng.OneIn(2)) {
          list.Get(kb.Set(key), &value, nullptr, nullptr);
        } else {
          list.Insert(kb.Set(key), Slice("12345678"), seq.fetch_add(1), ValueType::kValue);
        }
        ++ops;
      }
      total_ops.fetch_add(ops);
    });
  }
  const uint64_t start = flodb::NowNanos();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  return static_cast<double>(total_ops.load()) / flodb::SecondsSince(start) / 1e6;
}

}  // namespace
}  // namespace flodb::bench

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig07", "concurrent skiplist throughput (Mops/s), threads x dataset size");

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
