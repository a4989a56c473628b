// Shared infrastructure for the figure-reproduction benchmarks.
//
// Scaling: the paper ran on a 20-core Xeon with a 960GB SSD, 300GB
// datasets and up to 192GB memory components. These benches reproduce the
// experiment SHAPES at laptop scale: an in-memory Env with a token-bucket
// write throttle stands in for the SSD, datasets are ~10^5 keys, and
// memory components are MBs. Every knob scales via environment variables:
//
//   FLODB_BENCH_SECONDS   seconds per data point        (default 1)
//   FLODB_BENCH_THREADS   comma list of thread counts   (default "1,2,4")
//   FLODB_BENCH_KEYS      key-space size                (default 100000)
//   FLODB_BENCH_VALUE     value bytes                   (default 64)
//   FLODB_BENCH_MEMORY    memory component bytes        (default 2097152)
//   FLODB_BENCH_DISK_MBPS persistence bandwidth cap     (default 32)
//   FLODB_BENCH_CACHE     comma list of extra FloDB      (default none)
//                         block-cache byte sizes; each
//                         adds a FloDB column at that
//                         size ("0" = a FloDB-nocache
//                         column next to the default)
//   FLODB_BENCH_JSON      JSON output path (same as the
//                         --json command-line flag)
//
// Every figure reads these through BenchConfig::FromEnv(argc, argv) and
// records each result once with Report::Add, which prints the table line
// and, when a JSON path is set, lands the row in the figure's
// {"figure", "rows"} document (flodb/bench_util/report.h).

#ifndef FLODB_BENCH_BENCH_COMMON_H_
#define FLODB_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "flodb/baselines/baseline_store.h"
#include "flodb/bench_util/driver.h"
#include "flodb/bench_util/report.h"
#include "flodb/bench_util/workload.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/throttled_env.h"

namespace flodb::bench {

template <typename Int>
inline std::vector<Int> ParseNumList(const char* spec, std::vector<Int> def) {
  if (spec == nullptr || *spec == '\0') {
    return def;
  }
  std::vector<Int> out;
  const std::string s(spec);
  size_t pos = 0;
  while (pos < s.size()) {
    out.push_back(static_cast<Int>(atoll(s.c_str() + pos)));
    pos = s.find(',', pos);
    if (pos == std::string::npos) {
      break;
    }
    ++pos;
  }
  return out.empty() ? def : out;
}

inline std::vector<int> ParseIntList(const char* spec, std::vector<int> def) {
  return ParseNumList<int>(spec, std::move(def));
}

inline std::vector<long long> ParseInt64List(const char* spec, std::vector<long long> def) {
  return ParseNumList<long long>(spec, std::move(def));
}

struct BenchConfig {
  double seconds = 1.0;
  std::vector<int> threads = {1, 2, 4};
  uint64_t key_space = 100'000;
  size_t value_bytes = 64;
  size_t memory_bytes = 2u << 20;
  uint64_t disk_mbps = 32;
  // Extra FloDB block-cache sizes to sweep; every entry adds a FloDB
  // column opened with that block_cache_bytes (0 = caching off) next to
  // the default-cache column.
  std::vector<long long> cache_bytes_list;
  // Machine-readable sink (--json / FLODB_BENCH_JSON); empty = none.
  std::string json_path;

  static BenchConfig FromEnv(int argc = 0, char** argv = nullptr) {
    BenchConfig config;
    config.seconds = EnvDouble("FLODB_BENCH_SECONDS", config.seconds);
    config.key_space = static_cast<uint64_t>(EnvInt("FLODB_BENCH_KEYS", 100'000));
    config.value_bytes = static_cast<size_t>(EnvInt("FLODB_BENCH_VALUE", 64));
    config.memory_bytes = static_cast<size_t>(EnvInt("FLODB_BENCH_MEMORY", 2 << 20));
    config.disk_mbps = static_cast<uint64_t>(EnvInt("FLODB_BENCH_DISK_MBPS", 32));
    config.threads = ParseIntList(getenv("FLODB_BENCH_THREADS"), config.threads);
    config.cache_bytes_list = ParseInt64List(getenv("FLODB_BENCH_CACHE"), {});
    config.json_path = JsonPathFromArgs(argc, argv);
    return config;
  }
};

// A store bundled with the environments backing it (owned together so the
// store dies before the envs).
struct StoreInstance {
  std::unique_ptr<MemEnv> mem_env;
  std::unique_ptr<ThrottledEnv> throttled_env;
  std::unique_ptr<KVStore> store;

  KVStore* operator->() const { return store.get(); }
  KVStore* get() const { return store.get(); }
};

enum class StoreId { kFloDB, kRocksDB, kRocksDBcLSM, kHyperLevelDB, kLevelDB };

inline const std::vector<StoreId>& AllStores() {
  static const std::vector<StoreId> all = {StoreId::kFloDB, StoreId::kRocksDB,
                                           StoreId::kRocksDBcLSM, StoreId::kHyperLevelDB,
                                           StoreId::kLevelDB};
  return all;
}

inline const char* StoreName(StoreId id) {
  switch (id) {
    case StoreId::kFloDB:
      return "FloDB";
    case StoreId::kRocksDB:
      return "RocksDB";
    case StoreId::kRocksDBcLSM:
      return "RocksDB/cLSM";
    case StoreId::kHyperLevelDB:
      return "HyperLevelDB";
    case StoreId::kLevelDB:
      return "LevelDB";
  }
  return "?";
}

// The baseline preset behind a non-FloDB column.
inline BaselineOptions BaselinePreset(StoreId id, size_t memory_bytes, const DiskOptions& disk) {
  switch (id) {
    case StoreId::kRocksDB:
      return BaselineOptions::RocksDB(memory_bytes, disk);
    case StoreId::kRocksDBcLSM:
      return BaselineOptions::CLSM(memory_bytes, disk);
    case StoreId::kHyperLevelDB:
      return BaselineOptions::HyperLevelDB(memory_bytes, disk);
    case StoreId::kLevelDB:
    case StoreId::kFloDB:
      break;
  }
  return BaselineOptions::LevelDB(memory_bytes, disk);
}

// Opens a fresh store of the given kind over a throttled in-memory disk.
// memory_bytes is the total memory-component budget (FloDB splits it 1:3;
// baselines give it all to their single memtable, as in the paper).
// FloDB runs as shipped: every other option keeps its default.
// `block_cache_bytes` >= 0 overrides the DiskOptions block-cache default
// for FloDB columns (0 = caching off); -1 keeps the default.
inline StoreInstance OpenStore(StoreId id, const BenchConfig& config, size_t memory_bytes,
                               long long block_cache_bytes = -1) {
  StoreInstance instance;
  instance.mem_env = std::make_unique<MemEnv>();
  instance.throttled_env =
      std::make_unique<ThrottledEnv>(instance.mem_env.get(), config.disk_mbps << 20);

  DiskOptions disk;
  disk.env = instance.throttled_env.get();
  disk.path = "/bench";
  disk.sstable_target_bytes = 1 << 20;
  if (block_cache_bytes >= 0) {
    disk.block_cache_bytes = static_cast<size_t>(block_cache_bytes);
  }

  Status status;
  if (id == StoreId::kFloDB) {
    FloDbOptions options;
    options.memory_budget_bytes = memory_bytes;
    options.disk = disk;
    std::unique_ptr<FloDB> db;
    status = FloDB::Open(options, &db);
    instance.store = std::move(db);
  } else {
    std::unique_ptr<BaselineStore> db;
    status = BaselineStore::Open(BaselinePreset(id, memory_bytes, disk), &db);
    instance.store = std::move(db);
  }
  if (!status.ok()) {
    fprintf(stderr, "bench: cannot open %s: %s\n", StoreName(id), status.ToString().c_str());
    abort();
  }
  return instance;
}

}  // namespace flodb::bench

#endif  // FLODB_BENCH_BENCH_COMMON_H_
