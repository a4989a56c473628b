// Server: the RESP2-speaking network front-end over any KVStore
// (DESIGN.md §11).
//
// Threading model: one acceptor thread plus N worker threads, each worker
// owning an edge-triggered epoll instance. Accepted connections are
// pinned round-robin to a worker for life, so per-connection state (read
// and write buffers, parser, pending batch) is touched by exactly one
// thread and needs no locks; only the shared KVStore — already fully
// thread-safe — is called concurrently.
//
// Pipelining: every write command (SET/MSET/DEL) parsed out of one read
// burst folds into a single WriteBatch, committed when the burst's
// parseable bytes run out OR when a read command (GET/MGET/SCAN/...)
// needs the writes visible first. A pipelining client therefore turns N
// network commands into one group commit — network batching compounding
// with the WAL group-commit pipeline (DESIGN.md §10). Replies always go
// out in command order: write replies are buffered until their batch
// commits.
//
// Shutdown/drain: Shutdown() (the SIGTERM path in flodb-server) stops
// accepting, lets every worker commit the pending batches of complete,
// already-received commands, flushes buffered replies with a bounded
// blocking drain, closes connections, then returns — so the caller can
// close the store knowing every acknowledged write reached it.

#ifndef FLODB_NET_SERVER_H_
#define FLODB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/common/status.h"
#include "flodb/common/synchronization.h"
#include "flodb/core/kv_store.h"
#include "flodb/net/resp.h"

namespace flodb {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // TCP port; 0 binds an ephemeral port (tests/benchmarks), read it back
  // via Server::port().
  int port = 6399;
  // Worker event loops; 0 = auto (half the hardware threads, clamped to
  // [1, 8]). The acceptor thread is separate.
  int workers = 0;
  // WriteOptions::sync for every server-issued commit. With the WAL on,
  // an acknowledged write is then fsync-durable — group commit keeps it
  // affordable because one fsync covers a whole pipelined batch AND every
  // concurrently queued connection (DESIGN.md §10).
  bool sync_writes = false;
  // Protocol frame ceilings (oversized frames are protocol errors).
  RespLimits limits;
};

// Server-level counters, reported by GetStats() and the INFO command
// (which also rolls in the store's StoreStats).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;
  uint64_t commands_processed = 0;
  // WriteBatch commits the server issued: write commands from one read
  // burst fold into one commit, so pipelined_batches < write commands
  // whenever clients actually pipeline.
  uint64_t pipelined_batches = 0;
  // Write commands folded into those commits (fold factor =
  // batched_write_commands / pipelined_batches).
  uint64_t batched_write_commands = 0;
  uint64_t protocol_errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  uint64_t ConnectionsActive() const { return connections_accepted - connections_closed; }
};

class Server {
 public:
  // Binds, listens and spawns the acceptor + worker threads. `store` is
  // borrowed and must outlive the server (Shutdown() before closing it).
  static Status Start(const ServerOptions& options, KVStore* store, std::unique_ptr<Server>* out);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Graceful drain (idempotent, thread-safe): stop accepting, commit
  // pending batches, flush buffered replies, close connections, join all
  // threads. After it returns the store can be closed safely.
  void Shutdown();

  // The bound port (resolves 0 = ephemeral).
  int port() const { return port_; }
  ServerStats GetStats() const;

 private:
  struct Connection;
  struct Worker;

  explicit Server(const ServerOptions& options, KVStore* store);

  Status Listen();
  void AcceptorLoop();
  void WorkerLoop(Worker* worker);
  void AdoptIncoming(Worker* worker);
  void DrainWorker(Worker* worker);

  // I/O per connection (single-threaded within the owning worker).
  void HandleReadable(Worker* worker, Connection* conn);
  void FlushOutput(Worker* worker, Connection* conn);
  void CloseConnection(Worker* worker, Connection* conn);

  // Command processing.
  void ProcessInput(Connection* conn);
  void DispatchCommand(Connection* conn, const RespCommand& cmd);
  void CommitPending(Connection* conn);
  std::string BuildInfoReply() const;

  const ServerOptions options_;
  KVStore* const store_;
  int listen_fd_ = -1;
  int port_ = 0;
  int acceptor_wake_fd_ = -1;
  std::thread acceptor_thread_;
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> shut_down_{false};
  std::vector<std::unique_ptr<Worker>> workers_;

  // Counters (relaxed; read-mostly reporting).
  struct AtomicStats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> connections_rejected{0};
    std::atomic<uint64_t> commands_processed{0};
    std::atomic<uint64_t> pipelined_batches{0};
    std::atomic<uint64_t> batched_write_commands{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace flodb

#endif  // FLODB_NET_SERVER_H_
