// Session store over FloDB — the paper's second motivating workload
// ("maintaining session states in user-facing applications", §1).
//
// A small set of hot sessions receives most updates (skewed 98/2). With
// FloDB's IN-PLACE updates, the hot set stays resident in the memory
// component instead of generating an endless stream of versions — the
// effect behind Figure 16.

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

std::string SessionKey(uint64_t user) { return "session:" + flodb::EncodeKey(user); }

}  // namespace

int main() {
  using namespace flodb;

  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 8u << 20;
  options.disk.env = &env;
  options.disk.path = "/sessions";

  std::unique_ptr<FloDB> db;
  if (Status s = FloDB::Open(options, &db); !s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  constexpr uint64_t kUsers = 100'000;
  constexpr uint64_t kHotUsers = kUsers / 50;  // 2%
  constexpr int kFrontends = 4;
  constexpr int kOpsPerFrontend = 50'000;

  std::atomic<uint64_t> reads{0}, writes{0}, hits{0};
  const uint64_t start = NowNanos();
  std::vector<std::thread> frontends;
  for (int f = 0; f < kFrontends; ++f) {
    frontends.emplace_back([&, f] {
      Random64 rng(static_cast<uint64_t>(f) * 31 + 7);
      std::string state;
      char payload[160];
      for (int i = 0; i < kOpsPerFrontend; ++i) {
        // 98% of traffic goes to the hot 2% of sessions.
        const uint64_t user = rng.NextDouble() < 0.98 ? rng.Uniform(kHotUsers)
                                                      : kHotUsers + rng.Uniform(kUsers - kHotUsers);
        const std::string key = SessionKey(user);
        if (rng.OneIn(2)) {
          // Refresh session state (fixed-size => in-place in the Membuffer).
          snprintf(payload, sizeof(payload),
                   "{\"user\":%010llu,\"last_seen\":%020llu,\"cart_items\":%02d}",
                   static_cast<unsigned long long>(user),
                   static_cast<unsigned long long>(NowNanos()), i % 100);
          db->Put(Slice(key), Slice(payload));
          writes.fetch_add(1);
        } else {
          if (db->Get(Slice(key), &state).ok()) {
            hits.fetch_add(1);
          }
          reads.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : frontends) {
    t.join();
  }
  const double elapsed = SecondsSince(start);

  const StoreStats stats = db->GetStats();
  printf("session store demo (98%% of ops on 2%% of %llu sessions):\n",
         static_cast<unsigned long long>(kUsers));
  printf("  throughput  %.0f Kops/s across %d frontend threads\n",
         static_cast<double>(reads.load() + writes.load()) / elapsed / 1000, kFrontends);
  printf("  read hit rate %.1f%%\n",
         reads.load() ? 100.0 * static_cast<double>(hits.load()) /
                            static_cast<double>(reads.load())
                      : 0.0);
  printf("  in-place capture: %llu membuffer adds vs %llu memtable spills\n",
         static_cast<unsigned long long>(stats.membuffer_adds),
         static_cast<unsigned long long>(stats.memtable_direct_adds));
  printf("  disk flushes: %llu (in-place updates keep the hot set in memory)\n",
         static_cast<unsigned long long>(stats.disk.flushes));

  // Skewed-read phase: push everything to the disk component, then
  // replay the same 98/2 read skew against it. The hot sessions' blocks
  // are served by the shared block cache (DESIGN.md §9) instead of
  // paying an Env read + CRC per lookup — the hit rate below is the
  // cache doing the hot set's work.
  db->FlushAll();
  const StoreStats before = db->GetStats();
  const uint64_t read_start = NowNanos();
  std::vector<std::thread> readers;
  std::atomic<uint64_t> phase_reads{0};
  for (int f = 0; f < kFrontends; ++f) {
    readers.emplace_back([&, f] {
      Random64 rng(static_cast<uint64_t>(f) * 131 + 17);
      std::string state;
      for (int i = 0; i < kOpsPerFrontend / 2; ++i) {
        const uint64_t user = rng.NextDouble() < 0.98 ? rng.Uniform(kHotUsers)
                                                      : kHotUsers + rng.Uniform(kUsers - kHotUsers);
        db->Get(Slice(SessionKey(user)), &state);
        phase_reads.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  const double read_elapsed = SecondsSince(read_start);

  const StoreStats after = db->GetStats();
  const uint64_t cache_hits = after.disk.block_cache_hits - before.disk.block_cache_hits;
  const uint64_t cache_misses = after.disk.block_cache_misses - before.disk.block_cache_misses;
  printf("skewed-read phase (disk-resident, same 98/2 skew):\n");
  printf("  throughput  %.0f Kops/s across %d frontend threads\n",
         static_cast<double>(phase_reads.load()) / read_elapsed / 1000, kFrontends);
  printf("  block cache hit rate %.1f%% (%llu hits / %llu misses, %llu KB resident)\n",
         cache_hits + cache_misses
             ? 100.0 * static_cast<double>(cache_hits) /
                   static_cast<double>(cache_hits + cache_misses)
             : 0.0,
         static_cast<unsigned long long>(cache_hits),
         static_cast<unsigned long long>(cache_misses),
         static_cast<unsigned long long>(after.disk.block_cache_bytes >> 10));
  return 0;
}
