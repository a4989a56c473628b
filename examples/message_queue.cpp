// Message queue over FloDB — the paper's motivating write-heavy workload
// ("message queues that undergo a high number of updates", §1), on the
// v2 batch API.
//
// The queue is split into kPartitions partitions (as in Kafka): each
// message key leads with a partition tag byte, so keys sort by
// (partition, seq). Producers round-robin partitions inside one
// WriteBatch per 64 messages, so each message pays a share of one batch
// commit. The consumer drains the WHOLE queue with one range scan
// in (partition, seq) key order and acknowledges each scanned batch with
// a single batch of tombstones.

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "flodb/common/clock.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"

namespace {

constexpr int kPartitions = 4;

// Partition tag byte: partitions uniformly spaced over the byte range,
// so every queue partition lands in its own Membuffer partition (the top
// key bits pick it, §4.3) and drains into its own skiplist neighborhood.
// A raw (non-printable) byte is fine — FloDB keys are arbitrary bytes.
char PartitionTag(int partition) {
  return static_cast<char>((partition * 256) / kPartitions);
}

std::string MessageKey(int partition, uint64_t seq) {
  // Tag + fixed-width zero-padded seq: byte order == (partition, seq).
  // Length-explicit construction: partition 0's tag is a NUL byte, which
  // would truncate a C-string conversion.
  char buf[32];
  const int len = snprintf(buf, sizeof(buf), "%cevt:%012" PRIu64, PartitionTag(partition), seq);
  return std::string(buf, static_cast<size_t>(len));
}

}  // namespace

int main() {
  using namespace flodb;

  // In-memory Env keeps the example self-contained; swap in GetPosixEnv()
  // and a real path for durability.
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 8u << 20;
  options.disk.env = &env;
  options.disk.path = "/queue";

  std::unique_ptr<FloDB> db;
  if (Status s = FloDB::Open(options, &db); !s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  constexpr int kProducers = 3;
  constexpr uint64_t kMessagesPerProducer = 20'000;
  constexpr size_t kProducerBatch = 64;
  std::atomic<uint64_t> next_seq{0};
  std::atomic<uint64_t> produced{0};

  const uint64_t start = NowNanos();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      char payload[128];
      WriteBatch batch;
      for (uint64_t i = 0; i < kMessagesPerProducer; ++i) {
        const uint64_t seq = next_seq.fetch_add(1);
        // Round-robin partitions: one producer batch spans all of them.
        const int partition = static_cast<int>(seq % kPartitions);
        const int len = snprintf(payload, sizeof(payload),
                                 "{\"producer\":%d,\"n\":%llu,\"body\":\"event-payload\"}", p,
                                 static_cast<unsigned long long>(i));
        batch.Put(Slice(MessageKey(partition, seq)), Slice(payload, static_cast<size_t>(len)));
        if (batch.Count() >= kProducerBatch || i + 1 == kMessagesPerProducer) {
          db->Write(WriteOptions(), &batch);
          produced.fetch_add(batch.Count());
          batch.Clear();
        }
      }
    });
  }

  // Consumer: drains batches of 500 messages across ALL partitions while
  // producers run. Consumed messages are deleted (one tombstone batch),
  // so each partition's head advances naturally, and in-flight
  // messages with smaller sequence numbers (producers race on the
  // counter) are picked up by a later pass instead of being skipped.
  std::atomic<bool> producers_done{false};
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    std::vector<std::pair<std::string, std::string>> batch;
    while (true) {
      // Sample the flag BEFORE scanning: an empty scan only proves the
      // queue is drained if no producer was active when the scan began.
      const bool done_before_scan = producers_done.load();
      const Status s = db->Scan(Slice(MessageKey(0, 0)), Slice(), 500, &batch);
      if (!s.ok()) {
        fprintf(stderr, "scan failed: %s\n", s.ToString().c_str());
        return;
      }
      if (batch.empty()) {
        if (done_before_scan) {
          return;
        }
        std::this_thread::yield();
        continue;
      }
      // Ack the whole scanned batch with one call.
      WriteBatch acks;
      for (const auto& [key, payload] : batch) {
        acks.Delete(Slice(key));
      }
      db->Write(WriteOptions(), &acks);
      consumed.fetch_add(batch.size());
    }
  });

  for (auto& t : producers) {
    t.join();
  }
  producers_done.store(true);
  consumer.join();
  const double elapsed = SecondsSince(start);

  printf("message queue demo (%d partitions):\n", kPartitions);
  printf("  produced   %llu messages with %d producers\n",
         static_cast<unsigned long long>(produced.load()), kProducers);
  printf("  consumed   %llu messages in (partition, seq) order\n",
         static_cast<unsigned long long>(consumed.load()));
  printf("  elapsed    %.2f s  (%.0f Kmsg/s end-to-end)\n", elapsed,
         static_cast<double>(produced.load() + consumed.load()) / elapsed / 1000);

  const StoreStats stats = db->GetStats();
  printf("  group commit: %.1f entries per batch on average\n",
         stats.batch_writes > 0
             ? static_cast<double>(stats.batch_entries) / static_cast<double>(stats.batch_writes)
             : 0.0);
  printf("  membuffer absorbed %.1f%% of writes\n",
         100.0 * static_cast<double>(stats.membuffer_adds) /
             static_cast<double>(stats.membuffer_adds + stats.memtable_direct_adds));
  printf("  scans=%llu (restarts=%llu, fallbacks=%llu)\n",
         static_cast<unsigned long long>(stats.scans),
         static_cast<unsigned long long>(stats.scan_restarts),
         static_cast<unsigned long long>(stats.fallback_scans));
  return consumed.load() == produced.load() ? 0 : 1;
}
