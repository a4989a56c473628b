// Server QPS over loopback: connections x pipeline-depth sweep against a
// live flodb-server event loop (DESIGN.md §11). Each client connection
// drives closed-loop bursts of `depth` pipelined commands (alternating
// all-SET and all-GET bursts), so depth 1 measures per-command RTT and
// depth >= 8 measures how far the parser + WriteBatch folding amortize
// the per-command cost. Reported latency is the full burst round trip.
//
// The store runs over MemEnv with the WAL on: the pipelined SET bursts
// exercise the real group-commit write path while fsync stays free, so
// the figure isolates the serving layer rather than the disk.
//
// Env knobs (bench_common.h): FLODB_BENCH_SECONDS, FLODB_BENCH_THREADS
// (= client connections, default "1,2,4"), FLODB_BENCH_KEYS,
// FLODB_BENCH_VALUE.
//   FLODB_BENCH_PIPELINE  comma list of pipeline depths (default "1,8,32")
//   --json out.json       machine-readable rows (also FLODB_BENCH_JSON)

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "flodb/common/synchronization.h"
#include "flodb/bench_util/latency.h"
#include "flodb/common/clock.h"
#include "flodb/common/key_codec.h"
#include "flodb/net/resp_client.h"
#include "flodb/net/server.h"

int main(int argc, char** argv) {
  using namespace flodb;
  using namespace flodb::bench;
  BenchConfig config = BenchConfig::FromEnv(argc, argv);
  const std::vector<int> depths = ParseIntList(getenv("FLODB_BENCH_PIPELINE"), {1, 8, 32});

  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = config.memory_bytes;
  options.enable_wal = true;
  options.disk.env = &env;
  options.disk.path = "/bench";
  options.disk.sstable_target_bytes = 1 << 20;
  std::unique_ptr<FloDB> db;
  if (Status s = FloDB::Open(options, &db); !s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  std::unique_ptr<Server> server;
  if (Status s = Server::Start(server_options, db.get(), &server); !s.ok()) {
    fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  Report report("fig_server_qps", "flodb-server loopback QPS, connections x pipeline depth");

  const std::string value(config.value_bytes, 'v');
  for (const int depth : depths) {
    for (const int conns : config.threads) {
      const ServerStats before = server->GetStats();
      std::atomic<bool> stop{false};
      std::atomic<uint64_t> total_ops{0};
      std::atomic<bool> failed{false};
      LatencyRecorder merged;
      flodb::Mutex merge_mu;

      std::vector<std::thread> clients;
      clients.reserve(static_cast<size_t>(conns));
      for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&, c] {
          RespClient client;
          if (!client.Connect("127.0.0.1", server->port()).ok()) {
            failed.store(true);
            return;
          }
          LatencyRecorder local;
          RespReply reply;
          uint64_t ops = 0;
          for (uint64_t burst = 0; !stop.load(std::memory_order_relaxed); ++burst) {
            const bool writes = (burst % 2 == 0);
            const uint64_t t0 = NowNanos();
            for (int i = 0; i < depth; ++i) {
              const uint64_t key = SpreadKey(
                  (static_cast<uint64_t>(c) * 1'000'003 + burst * static_cast<uint64_t>(depth) +
                   static_cast<uint64_t>(i)) %
                      config.key_space,
                  config.key_space * 8);
              if (writes) {
                client.QueueCommand({"SET", EncodeKey(key), value});
              } else {
                client.QueueCommand({"GET", EncodeKey(key)});
              }
            }
            if (!client.Flush().ok()) {
              failed.store(true);
              return;
            }
            for (int i = 0; i < depth; ++i) {
              if (!client.ReadReply(&reply).ok() || reply.type == RespReply::Type::kError) {
                failed.store(true);
                return;
              }
            }
            local.Record(NowNanos() - t0);
            ops += static_cast<uint64_t>(depth);
          }
          total_ops.fetch_add(ops, std::memory_order_relaxed);
          flodb::MutexLock lock(merge_mu);
          merged.Merge(local);
        });
      }
      const uint64_t start = NowNanos();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(config.seconds * 1000)));
      stop.store(true);
      for (std::thread& t : clients) {
        t.join();
      }
      const double elapsed = SecondsSince(start);
      if (failed.load()) {
        fprintf(stderr, "client failed mid-run (conns=%d depth=%d)\n", conns, depth);
        return 1;
      }

      const ServerStats after = server->GetStats();
      const uint64_t batches = after.pipelined_batches - before.pipelined_batches;
      const uint64_t folded_writes = after.batched_write_commands - before.batched_write_commands;
      // Commands per WriteBatch commit: > 1 means pipelining actually
      // folded (the ISSUE acceptance signal for depth > 1).
      const double folded =
          batches > 0 ? static_cast<double>(folded_writes) / static_cast<double>(batches) : 0.0;
      const double ops_per_sec = static_cast<double>(total_ops.load()) / elapsed;
      const double p50_us = static_cast<double>(merged.PercentileNanos(50)) / 1e3;
      const double p99_us = static_cast<double>(merged.PercentileNanos(99)) / 1e3;

      // The regression gate keys rows on (store, threads): pipeline
      // depth rides in the store name, connections in threads.
      report.Add({{"store", "flodb-server-p" + std::to_string(depth)},
                  {"threads", conns},
                  {"mops", ops_per_sec / 1e6},
                  {"pipeline", depth},
                  {"burst_p50_us", p50_us},
                  {"burst_p99_us", p99_us},
                  {"cmds_per_batch", folded}});
    }
  }

  server->Shutdown();
  report.WriteJson(config.json_path);
  return 0;
}
