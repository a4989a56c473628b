// Figure 8: simple inserts vs 5-key multi-inserts as a function of key
// proximity ("neighborhood size": all keys of one multi-insert are within
// distance 2n of each other). Expected shape: multi-insert beats simple
// insert, and the advantage grows as the neighborhood shrinks (more path
// reuse between consecutive inserts).

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/mem/skiplist.h"

namespace flodb::bench {
namespace {

constexpr int kKeysPerBatch = 5;

// Returns keys/second (inserted), for either insert mode.
double RunPoint(uint64_t initial_size, uint64_t neighborhood, bool multi_insert,
                double seconds) {
  ConcurrentArena arena(4u << 20);
  ConcurrentSkipList list(&arena);

  // Initial population (paper: 100M elements; scaled).
  KeyBuf buf;
  for (uint64_t i = 0; i < initial_size; ++i) {
    list.Insert(buf.Set(SpreadKey(i, initial_size)), Slice("init"), i + 1, ValueType::kValue);
  }
  const uint64_t key_domain = initial_size;  // logical key space

  Random64 rng(1234);
  std::atomic<uint64_t> seq{initial_size + 1};
  uint64_t keys_done = 0;
  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(seconds * 1e9);

  std::vector<uint64_t> batch_keys(kKeysPerBatch);
  std::vector<std::string> key_storage(kKeysPerBatch);
  std::vector<ConcurrentSkipList::BatchEntry> batch;
  while (NowNanos() < deadline) {
    // Draw 5 keys within a window of 2*neighborhood (0 = unbounded).
    const uint64_t window = neighborhood == 0 ? key_domain : 2 * neighborhood;
    const uint64_t base = rng.Uniform(key_domain > window ? key_domain - window : 1);
    for (int i = 0; i < kKeysPerBatch; ++i) {
      batch_keys[static_cast<size_t>(i)] = base + rng.Uniform(window);
    }
    std::sort(batch_keys.begin(), batch_keys.end());
    batch_keys.erase(std::unique(batch_keys.begin(), batch_keys.end()), batch_keys.end());

    if (multi_insert) {
      batch.clear();
      for (size_t i = 0; i < batch_keys.size(); ++i) {
        key_storage[i] = EncodeKey(SpreadKey(batch_keys[i], key_domain));
        batch.push_back(ConcurrentSkipList::BatchEntry{Slice(key_storage[i]), Slice("upd8"),
                                                       ValueType::kValue, seq.fetch_add(1)});
      }
      list.MultiInsert(batch);
    } else {
      for (size_t i = 0; i < batch_keys.size(); ++i) {
        list.Insert(buf.Set(SpreadKey(batch_keys[i], key_domain)), Slice("upd8"),
                    seq.fetch_add(1), ValueType::kValue);
      }
    }
    keys_done += batch_keys.size();
  }
  return static_cast<double>(keys_done) / seconds / 1e6;
}

}  // namespace
}  // namespace flodb::bench

int main(int argc, char** argv) {
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  Report report("fig08", "simple insert vs 5-key multi-insert by neighborhood size (Mops/s)");

  // The multi-insert advantage grows with the tower-descent depth, i.e.
  // with the initial list size relative to the neighborhood (paper: 100M
  // elements). Keep this as large as the host affords.
  const uint64_t initial =
      static_cast<uint64_t>(EnvInt("FLODB_BENCH_FIG8_INITIAL", 1'000'000));
  // 0 encodes the paper's "None" (whole key range).
  const std::vector<uint64_t> neighborhoods = {10, 100, 1000, 10'000, 0};
  for (uint64_t n : neighborhoods) {
    const double simple = RunPoint(initial, n, /*multi_insert=*/false, config.seconds);
    const double multi = RunPoint(initial, n, /*multi_insert=*/true, config.seconds);
    report.Add({{"neighborhood", n},
                {"simple_mops", simple},
                {"multi_mops", multi},
                {"speedup", simple > 0 ? multi / simple : 0}});
  }
  report.WriteJson(config.json_path);
  return 0;
}
