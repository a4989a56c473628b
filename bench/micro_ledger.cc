// Per-layer cost ledger: one hot primitive per layer, timed next to an
// in-run reference, so each row's ratio says what the layer costs beyond
// a known baseline on the same host and host speed mostly cancels out.
//
//   layer            reference        why this reference
//   crc32c_4k        memcpy_4k        checksumming a block vs copying it
//   bloom_probe      hash32_key       a probe vs the hash it starts from
//   membuffer_add    skiplist_insert  the paper's hash table vs skiplist
//   skiplist_insert  std_map_insert   the Memtable vs a serial sorted map
//   wal_encode       memcpy_record    framing + CRC vs copying the frame
//   resp_parse_set   memcpy_frame     parsing a SET vs copying its bytes
//   disk_get_hot     table_get_hot    the disk component's Get vs the
//                                     table lookup it ends in
//   disk_get_hot_4t  disk_get_hot     per-Get time of 4 threads at once
//                                     vs 1: what contention adds
//   version_read     atomic_load      how a Get reaches the current
//                                     Version vs a plain pointer load
//
// Each side's ns_per_op is the best of kTrials trials, the two sides
// alternating. ci/gates.json bounds crc32c_4k's ratio, which is about 10
// with the SSE4.2 CRC32C and about 280 with the portable table loop.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/report.h"
#include "flodb/common/hash.h"
#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/bloom.h"
#include "flodb/disk/crc32c.h"
#include "flodb/disk/disk_component.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/table_reader.h"
#include "flodb/disk/version.h"
#include "flodb/disk/wal.h"
#include "flodb/mem/membuffer.h"
#include "flodb/mem/memtable.h"
#include "flodb/mem/skiplist.h"
#include "flodb/net/resp.h"

namespace flodb::bench {
namespace {

constexpr int kTrials = 7;
constexpr size_t kValueBytes = 64;

// Makes the optimizer assume `value`, and any memory, is read here.
template <typename T>
void Keep(const T& value) { asm volatile("" : : "r,m"(value) : "memory"); }

// One timed primitive: `reset()` restores its starting state before each
// trial, then `op(i)` runs for i in [0, ops).
template <typename Reset, typename Op>
struct Timed {
  uint64_t ops;
  Reset reset;
  Op op;
};

template <typename Reset, typename Op>
double NsPerOp(Timed<Reset, Op>& timed) {
  timed.reset();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < timed.ops; ++i) {
    timed.op(i);
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(timed.ops);
}

// `threads` threads each run `op(i)` for i in [0, ops) at the same time;
// the time is per op of one thread, so without contention it is one
// thread's time. `op` keeps any per-thread state thread_local.
template <typename Op>
struct Parallel {
  int threads;
  uint64_t ops;
  Op op;
};

template <typename Op>
double NsPerOp(Parallel<Op>& parallel) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < parallel.threads; ++t) {
    workers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < parallel.ops; ++i) {
        parallel.op(i);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(parallel.ops);
}

template <typename Layer, typename Ref>
void AddRow(Report* report, const char* layer_name, Layer layer, const char* ref_name, Ref ref) {
  double layer_ns = std::numeric_limits<double>::infinity();
  double ref_ns = layer_ns;
  for (int t = 0; t < kTrials; ++t) {
    layer_ns = std::min(layer_ns, NsPerOp(layer));
    ref_ns = std::min(ref_ns, NsPerOp(ref));
  }
  report->Add({{"layer", layer_name},
               {"ns_per_op", layer_ns},
               {"ref", ref_name},
               {"ref_ns_per_op", ref_ns},
               {"ratio", layer_ns / ref_ns}});
}

// For primitives whose state every trial may reuse.
constexpr auto kNoReset = [] {};

// Times copying `from` into `to`: the reference for byte-proportional work.
auto CopyOp(const std::string& from, std::string* to) {
  return [&from, to](uint64_t) {
    memcpy(to->data(), from.data(), from.size());
    Keep(to->data());
  };
}

// A sink for WalWriter: encoding is priced, not the file system.
class DiscardFile : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    Keep(data.data());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
};

void LedgerCrc(Report* report) {
  std::string block(4096, '\0');
  Random64 rng(1);
  for (char& c : block) {
    c = static_cast<char>(rng.Next());
  }
  std::string copy(block.size(), '\0');
  auto crc = [&](uint64_t) { Keep(crc32c::Value(block.data(), block.size())); };
  AddRow(report, "crc32c_4k", Timed{20'000, kNoReset, crc}, "memcpy_4k",
         Timed{20'000, kNoReset, CopyOp(block, &copy)});
}

void LedgerBloom(Report* report) {
  const BloomFilter bloom(10);
  std::vector<std::string> key_strings;
  for (uint64_t i = 0; i < 10'000; ++i) {
    key_strings.push_back(EncodeKey(i));
  }
  const std::vector<Slice> keys(key_strings.begin(), key_strings.end());
  std::string filter;
  bloom.CreateFilter(keys, &filter);
  KeyBuf buf;
  // Half the probed keys are in the filter.
  auto probe = [&](uint64_t i) { Keep(bloom.KeyMayMatch(buf.Set(i % 20'000), Slice(filter))); };
  auto hash = [&](uint64_t i) { Keep(Hash32(buf.Set(i % 20'000))); };
  AddRow(report, "bloom_probe", Timed{1'000'000, kNoReset, probe}, "hash32_key",
         Timed{1'000'000, kNoReset, hash});
}

void LedgerMemory(Report* report) {
  std::vector<uint64_t> keys(100'000);
  Random64 rng(2);
  for (uint64_t& key : keys) {
    key = rng.Next();
  }
  const std::string value(kValueBytes, 'v');
  KeyBuf buf;

  MemBuffer::Options options;
  options.capacity_bytes = 64u << 20;
  MemBuffer membuffer(options);
  auto membuffer_reset = [&] { membuffer.Reset(); };
  auto membuffer_add = [&](uint64_t i) {
    Keep(membuffer.Add(buf.Set(keys[i]), value, ValueType::kValue));
  };

  std::unique_ptr<ConcurrentArena> arena;
  std::unique_ptr<ConcurrentSkipList> skiplist;
  auto skiplist_reset = [&] {
    skiplist.reset();
    arena = std::make_unique<ConcurrentArena>(4u << 20);
    skiplist = std::make_unique<ConcurrentSkipList>(arena.get());
  };
  auto skiplist_insert = [&](uint64_t i) {
    Keep(skiplist->Insert(buf.Set(keys[i]), value, i + 1, ValueType::kValue));
  };

  std::map<std::string, std::string> map;
  auto map_reset = [&] { map.clear(); };
  auto map_insert = [&](uint64_t i) { map.insert_or_assign(buf.Set(keys[i]).ToString(), value); };

  AddRow(report, "membuffer_add", Timed{keys.size(), membuffer_reset, membuffer_add},
         "skiplist_insert", Timed{keys.size(), skiplist_reset, skiplist_insert});
  AddRow(report, "skiplist_insert", Timed{keys.size(), skiplist_reset, skiplist_insert},
         "std_map_insert", Timed{keys.size(), map_reset, map_insert});
}

void LedgerWal(Report* report) {
  WriteBatch batch;
  KeyBuf buf;
  batch.Put(buf.Set(42), Slice(std::string(kValueBytes, 'v')));
  const WalRecord record = WalRecord::Batch(1, Slice(batch.rep()));
  WalWriter writer(std::make_unique<DiscardFile>());
  // The framed record: 8-byte header, tag, varint count, entries.
  const std::string frame(8 + 2 + batch.rep().size(), 'f');
  std::string copy(frame.size(), '\0');
  auto encode = [&](uint64_t) { Keep(writer.Add(record).ok()); };
  AddRow(report, "wal_encode", Timed{1'000'000, kNoReset, encode}, "memcpy_record",
         Timed{1'000'000, kNoReset, CopyOp(frame, &copy)});
}

void LedgerResp(Report* report) {
  KeyBuf buf;
  const std::string key = buf.Set(42).ToString();
  const std::string value(kValueBytes, 'v');
  std::string frame = "*3\r\n$3\r\nSET\r\n";
  for (const std::string& arg : {key, value}) {
    frame += "$" + std::to_string(arg.size()) + "\r\n" + arg + "\r\n";
  }
  RespParser parser;
  RespCommand cmd;
  size_t consumed = 0;
  std::string error;
  std::string copy(frame.size(), '\0');
  auto parse = [&](uint64_t) {
    Keep(parser.Next(frame.data(), frame.size(), &cmd, &consumed, &error));
  };
  AddRow(report, "resp_parse_set", Timed{1'000'000, kNoReset, parse}, "memcpy_frame",
         Timed{1'000'000, kNoReset, CopyOp(frame, &copy)});
}

// One flushed run of 20,000 keys; the 64 hot keys sit in 64 different
// blocks, all cached. The reference opens its own reader over the same
// file with an equal block cache, so both sides hit the cache every time
// and the ratio is what the disk component adds around the table lookup.
void LedgerDiskGet(Report* report) {
  constexpr uint64_t kKeys = 20'000;
  constexpr uint64_t kHot = 64;
  MemEnv env;
  DiskOptions options;
  options.env = &env;
  options.path = "/ledger";
  options.compaction_threads = 0;
  std::unique_ptr<DiskComponent> disk;
  if (!DiskComponent::Open(options, &disk).ok()) {
    return;
  }
  KeyBuf buf;
  {
    MemTable table(64u << 20);
    const std::string value(kValueBytes, 'v');
    for (uint64_t k = 0; k < kKeys; ++k) {
      table.Add(buf.Set(k), Slice(value), k + 1, ValueType::kValue);
    }
    MemTableIterator iter(&table);
    if (!disk->AddRun(&iter).ok()) {
      return;
    }
  }
  std::string fname;
  std::vector<std::string> children;
  env.GetChildren(options.path, &children);
  for (const std::string& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      fname = options.path + "/" + name;
    }
  }
  uint64_t file_size = 0;
  std::unique_ptr<RandomAccessFile> file;
  ShardedLruCache cache(options.block_cache_bytes);
  TableReader::Options reader_options;
  reader_options.block_cache = &cache;
  std::unique_ptr<TableReader> reader;
  if (!env.GetFileSize(fname, &file_size).ok() || !env.NewRandomAccessFile(fname, &file).ok() ||
      !TableReader::Open(std::move(file), file_size, reader_options, &reader).ok()) {
    return;
  }
  std::string value;
  auto disk_get = [&](uint64_t i) {
    Keep(disk->Get(buf.Set((i % kHot) * (kKeys / kHot)), &value, nullptr, nullptr).ok());
  };
  auto table_get = [&](uint64_t i) {
    Keep(reader->Get(buf.Set((i % kHot) * (kKeys / kHot)), &value, nullptr, nullptr).ok());
  };
  auto disk_get_4t = [&](uint64_t i) {
    thread_local KeyBuf key;
    thread_local std::string out;
    Keep(disk->Get(key.Set((i % kHot) * (kKeys / kHot)), &out, nullptr, nullptr).ok());
  };
  AddRow(report, "disk_get_hot", Timed{200'000, kNoReset, disk_get}, "table_get_hot",
         Timed{200'000, kNoReset, table_get});
  AddRow(report, "disk_get_hot_4t", Parallel{4, 200'000, disk_get_4t}, "disk_get_hot",
         Timed{200'000, kNoReset, disk_get});
}

// What DiskComponent::Get does to reach the current Version, against a
// plain atomic load of a pointer.
void LedgerVersionRead(Report* report) {
  MemEnv env;
  VersionSet versions(&env, "/ledger", 7);
  if (!versions.Recover().ok()) {
    return;
  }
  const std::atomic<const void*> pointer{&versions};
  auto version_read = [&](uint64_t) {
    const VersionSet::ReadSection section(versions);
    Keep(&section.version());
  };
  auto atomic_load = [&](uint64_t) { Keep(pointer.load(std::memory_order_seq_cst)); };
  AddRow(report, "version_read", Timed{5'000'000, kNoReset, version_read}, "atomic_load",
         Timed{5'000'000, kNoReset, atomic_load});
}

}  // namespace
}  // namespace flodb::bench

int main(int argc, char** argv) {
  using namespace flodb::bench;
  Report report("micro_ledger", "per-layer cost of one primitive against an in-run reference");
  LedgerCrc(&report);
  LedgerBloom(&report);
  LedgerMemory(&report);
  LedgerWal(&report);
  LedgerResp(&report);
  LedgerDiskGet(&report);
  LedgerVersionRead(&report);
  return report.WriteJson(JsonPathFromArgs(argc, argv)) ? 0 : 1;
}
