// Analytics over a live store: streaming range scans running
// concurrently with a write stream — the capability FloDB's scan
// protocol exists for (§4.4): scans proceed on the Memtable + disk
// while writers keep completing in the Membuffer.
//
// v2 API: each per-region aggregation pulls a ScanIterator instead of
// materializing the region into a vector — the aggregation runs in
// bounded memory no matter how large a region grows, and the iterator
// never blocks the ingest stream between chunks.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"

namespace {

// orders:<region>:<order_id>, fixed width for byte-ordered ranges.
std::string OrderKey(int region, uint64_t id) {
  char buf[40];
  snprintf(buf, sizeof(buf), "orders:%02d:%012llu", region,
           static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

int main() {
  using namespace flodb;

  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 8u << 20;
  options.disk.env = &env;
  options.disk.path = "/orders";

  std::unique_ptr<FloDB> db;
  if (Status s = FloDB::Open(options, &db); !s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  constexpr int kRegions = 8;
  constexpr uint64_t kInitialOrders = 5000;

  // Backfill: existing orders per region, amounts encoded in the value.
  for (int region = 0; region < kRegions; ++region) {
    for (uint64_t id = 0; id < kInitialOrders; ++id) {
      char value[64];
      const int amount = static_cast<int>((id * 7 + static_cast<uint64_t>(region)) % 500) + 1;
      snprintf(value, sizeof(value), "amount=%d", amount);
      db->Put(Slice(OrderKey(region, id)), Slice(value));
    }
  }
  db->FlushAll();

  // Live traffic: new orders keep arriving while analytics runs.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> new_orders{0};
  std::thread ingest([&] {
    Random64 rng(42);
    uint64_t id = kInitialOrders;
    while (!stop.load()) {
      const int region = static_cast<int>(rng.Uniform(kRegions));
      char value[64];
      snprintf(value, sizeof(value), "amount=%d", static_cast<int>(rng.Uniform(500)) + 1);
      db->Put(Slice(OrderKey(region, id++)), Slice(value));
      new_orders.fetch_add(1);
    }
  });

  // Analytics: per-region revenue streamed through ScanIterators — the
  // aggregation touches every row exactly once without ever holding more
  // than one chunk in memory.
  printf("per-region revenue (streaming scans against live writes):\n");
  uint64_t total_rows = 0;
  size_t max_buffered = 0;
  const uint64_t start = NowNanos();
  for (int region = 0; region < kRegions; ++region) {
    const std::string low = OrderKey(region, 0);
    const std::string high = OrderKey(region + 1, 0);
    ReadOptions ropts;
    ropts.scan_chunk_size = 512;
    auto it = db->NewScanIterator(ropts, Slice(low), Slice(high));
    uint64_t revenue = 0;
    size_t rows = 0;
    for (; it->Valid(); it->Next()) {
      int amount = 0;
      sscanf(it->value().ToString().c_str(), "amount=%d", &amount);
      revenue += static_cast<uint64_t>(amount);
      ++rows;
    }
    if (!it->status().ok()) {
      fprintf(stderr, "scan failed: %s\n", it->status().ToString().c_str());
      return 1;
    }
    if (it->MaxBufferedEntries() > max_buffered) {
      max_buffered = it->MaxBufferedEntries();
    }
    total_rows += rows;
    printf("  region %02d: %6zu orders, revenue %8llu\n", region, rows,
           static_cast<unsigned long long>(revenue));
  }
  const double elapsed = SecondsSince(start);
  stop.store(true);
  ingest.join();

  const StoreStats stats = db->GetStats();
  printf("\nstreamed %llu rows in %.2fs while %llu new orders arrived\n",
         static_cast<unsigned long long>(total_rows), elapsed,
         static_cast<unsigned long long>(new_orders.load()));
  printf("peak iterator buffer: %zu entries (chunked streaming, not materialized)\n",
         max_buffered);
  printf("scan machinery: %llu scans, %llu master, %llu piggybacked, %llu restarts, "
         "%llu fallbacks\n",
         static_cast<unsigned long long>(stats.scans),
         static_cast<unsigned long long>(stats.master_scans),
         static_cast<unsigned long long>(stats.piggyback_scans),
         static_cast<unsigned long long>(stats.scan_restarts),
         static_cast<unsigned long long>(stats.fallback_scans));
  return 0;
}
