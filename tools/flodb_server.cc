// flodb-server: the FloDB network server binary (DESIGN.md §11).
//
//   flodb-server --db /var/lib/flodb [--port 6399] [--sync]
//
// Speaks RESP2 on a TCP port, so redis-cli / redis-benchmark / memtier
// work out of the box for the supported command set (GET SET DEL MGET
// MSET SCAN PING ECHO INFO). The WAL is ON by default: a SIGTERM drain
// plus clean store close makes every acknowledged write durable, and
// --sync upgrades that to fsync-before-ack (group commit keeps it cheap
// under pipelining — see BUILDING.md "Running the server").
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, flush
// in-flight replies, close the store cleanly, exit 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "flodb/core/flodb.h"
#include "flodb/disk/env.h"
#include "flodb/net/server.h"
#include "int_flag.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --db PATH        database directory (default ./flodb-data)\n"
               "  --port N         TCP port, 0 = ephemeral (default 6399)\n"
               "  --bind ADDR      bind address (default 127.0.0.1)\n"
               "  --workers N      event-loop threads, 0 = auto (default 0)\n"
               "  --memory-mb N    memory-component budget (default 64)\n"
               "  --sync           fsync the WAL before acking every write\n"
               "  --no-wal         disable write-ahead logging (no crash durability)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path = "./flodb-data";
  std::string bind_address = "127.0.0.1";
  int port = 6399;
  int workers = 0;
  long long memory_mb = 64;
  bool sync_writes = false;
  bool enable_wal = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--db") {
      db_path = next("--db");
    } else if (arg == "--port") {
      port = static_cast<int>(IntFlagOrExit("--port", next("--port"), 0, 65535));
    } else if (arg == "--bind") {
      bind_address = next("--bind");
    } else if (arg == "--workers") {
      workers = static_cast<int>(IntFlagOrExit("--workers", next("--workers"), 0, 1024));
    } else if (arg == "--memory-mb") {
      // Capped so the byte budget (memory_mb << 20) cannot overflow.
      memory_mb = IntFlagOrExit("--memory-mb", next("--memory-mb"), 1,
                                static_cast<long long>(SIZE_MAX >> 20));
    } else if (arg == "--sync") {
      sync_writes = true;
    } else if (arg == "--no-wal") {
      enable_wal = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  // Block the shutdown signals in every thread (the server's workers
  // inherit this mask); the main thread collects them with sigwait so the
  // drain runs on a normal stack, not in a signal handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  flodb::FloDbOptions options;
  options.memory_budget_bytes = static_cast<size_t>(memory_mb) << 20;
  options.enable_wal = enable_wal;
  options.disk.env = flodb::GetPosixEnv();
  options.disk.path = db_path;

  std::unique_ptr<flodb::FloDB> store;
  flodb::Status status = flodb::FloDB::Open(options, &store);
  if (!status.ok()) {
    std::fprintf(stderr, "flodb-server: cannot open store at %s: %s\n", db_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  flodb::ServerOptions server_options;
  server_options.bind_address = bind_address;
  server_options.port = port;
  server_options.workers = workers;
  server_options.sync_writes = sync_writes;

  std::unique_ptr<flodb::Server> server;
  status = flodb::Server::Start(server_options, store.get(), &server);
  if (!status.ok()) {
    std::fprintf(stderr, "flodb-server: cannot start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("flodb-server listening on %s:%d (store=%s, db=%s, wal=%s, sync=%s)\n",
              bind_address.c_str(), server->port(), store->Name().c_str(), db_path.c_str(),
              enable_wal ? "on" : "off", sync_writes ? "on" : "off");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("flodb-server: received %s, draining...\n", sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);

  server->Shutdown();
  const flodb::ServerStats stats = server->GetStats();
  server.reset();
  store.reset();  // clean close: WAL + manifest consistent on disk
  std::printf(
      "flodb-server: drained (connections=%llu commands=%llu batches=%llu) — bye\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.commands_processed),
      static_cast<unsigned long long>(stats.pipelined_batches));
  return 0;
}
