#include "flodb/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "flodb/core/write_batch.h"
#include "flodb/net/byte_buffer.h"

namespace flodb {

namespace {

constexpr int kMaxEpollEvents = 64;
// Bounded blocking drain per worker during Shutdown().
constexpr int kDrainTimeoutMs = 5000;
constexpr int kListenBacklog = 511;
// Upper bound on concurrently open connections; excess accepts are
// closed immediately (counted in ServerStats::connections_rejected).
constexpr uint64_t kMaxConnections = 10000;
// Entries a SCAN command may return (COUNT is clamped to this).
constexpr size_t kScanMaxEntries = 1000;

std::string UpperVerb(const Slice& s) {
  std::string verb(s.data(), s.size());
  for (char& c : verb) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return verb;
}

void AppendWrongArity(std::string* out, const std::string& verb) {
  std::string msg = "ERR wrong number of arguments for '" + verb + "' command";
  RespAppendError(out, msg);
}

}  // namespace

// One client connection; owned by (and only ever touched from) a single
// worker thread.
struct Server::Connection {
  int fd = -1;
  ByteBuffer in{16 << 10};
  ByteBuffer out{16 << 10};
  RespParser parser;

  // The fold target: write commands staged since the last commit point.
  WriteBatch pending;
  // One buffered RESP reply per staged write command, emitted in order
  // after the batch commits (replaced by -ERR on commit failure).
  std::vector<std::string> pending_replies;
  // Burst-local view of keys the pending batch writes, so DEL existence
  // checks see earlier writes of the same burst before they commit.
  std::unordered_map<std::string, bool> pending_present;  // true = live value

  std::string scratch;  // reply build area, reused across commands

  bool close_after_flush = false;  // emitted a fatal error / QUIT
  bool peer_eof = false;

  explicit Connection(const RespLimits& limits) : parser(limits) {}
};

struct Server::Worker {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  Mutex mu;
  std::vector<int> incoming GUARDED_BY(mu);  // accepted fds awaiting registration
  bool stop GUARDED_BY(mu) = false;

  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

Server::Server(const ServerOptions& options, KVStore* store) : options_(options), store_(store) {}

Status Server::Start(const ServerOptions& options, KVStore* store,
                     std::unique_ptr<Server>* out) {
  out->reset();
  if (store == nullptr) {
    return Status::InvalidArgument("server: store is required");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("server: port out of range");
  }
  if (options.workers < 0) {
    return Status::InvalidArgument("server: workers must be >= 0");
  }
  std::unique_ptr<Server> server(new Server(options, store));

  int workers = options.workers;
  if (workers == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(hw / 2);
    if (workers < 1) workers = 1;
    if (workers > 8) workers = 8;
  }

  Status s = server->Listen();
  if (!s.ok()) {
    return s;
  }

  for (int i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->wake_fd < 0) {
      return Status::IOError("server: epoll_create1/eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    if (epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) != 0) {
      return Status::IOError("server: epoll_ctl(wake_fd) failed");
    }
    server->workers_.push_back(std::move(worker));
  }
  server->acceptor_wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (server->acceptor_wake_fd_ < 0) {
    return Status::IOError("server: eventfd failed");
  }

  for (auto& worker : server->workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([server_ptr = server.get(), w] { server_ptr->WorkerLoop(w); });
  }
  server->acceptor_thread_ =
      std::thread([server_ptr = server.get()] { server_ptr->AcceptorLoop(); });

  *out = std::move(server);
  return Status::OK();
}

Server::~Server() {
  Shutdown();
  for (auto& worker : workers_) {
    if (worker->epoll_fd >= 0) close(worker->epoll_fd);
    if (worker->wake_fd >= 0) close(worker->wake_fd);
  }
  if (acceptor_wake_fd_ >= 0) close(acceptor_wake_fd_);
}

Status Server::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("server: socket() failed");
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("server: bad bind address: " + options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError("server: bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) + ") failed: " + strerror(errno));
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IOError(std::string("server: listen() failed: ") + strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::IOError("server: getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void Server::AcceptorLoop() {
  int epfd = epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = acceptor_wake_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, acceptor_wake_fd_, &ev);

  size_t next_worker = 0;
  epoll_event events[kMaxEpollEvents];
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epfd, events, kMaxEpollEvents, -1);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == acceptor_wake_fd_) {
        uint64_t tick;
        while (read(acceptor_wake_fd_, &tick, sizeof(tick)) > 0) {
        }
        continue;
      }
      // Level-triggered accept: drain the backlog.
      for (;;) {
        int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          break;  // EAGAIN or transient error; epoll will re-arm
        }
        const uint64_t active = stats_.connections_accepted.load(std::memory_order_relaxed) -
                                stats_.connections_closed.load(std::memory_order_relaxed);
        if (active >= kMaxConnections) {
          stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
          close(fd);
          continue;
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
        Worker* w = workers_[next_worker++ % workers_.size()].get();
        {
          MutexLock lock(w->mu);
          w->incoming.push_back(fd);
        }
        uint64_t one64 = 1;
        ssize_t ignored = write(w->wake_fd, &one64, sizeof(one64));
        (void)ignored;
      }
    }
  }
  close(epfd);
}

void Server::AdoptIncoming(Worker* worker) {
  std::vector<int> fds;
  {
    MutexLock lock(worker->mu);
    fds.swap(worker->incoming);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    worker->conns.emplace(fd, std::move(conn));
  }
}

void Server::WorkerLoop(Worker* worker) {
  epoll_event events[kMaxEpollEvents];
  for (;;) {
    int n = epoll_wait(worker->epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker->wake_fd) {
        uint64_t tick;
        while (read(worker->wake_fd, &tick, sizeof(tick)) > 0) {
        }
        AdoptIncoming(worker);
        continue;
      }
      auto it = worker->conns.find(fd);
      if (it == worker->conns.end()) {
        continue;  // closed earlier in this batch of events
      }
      Connection* conn = it->second.get();
      const uint32_t mask = events[i].events;
      if (mask & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(worker, conn);
        continue;
      }
      if (mask & (EPOLLIN | EPOLLRDHUP)) {
        HandleReadable(worker, conn);
        if (worker->conns.find(fd) == worker->conns.end()) {
          continue;  // closed during processing
        }
      }
      if (mask & EPOLLOUT) {
        FlushOutput(worker, conn);
      }
    }
    bool stop;
    {
      MutexLock lock(worker->mu);
      stop = worker->stop;
    }
    if (stop) {
      DrainWorker(worker);
      return;
    }
  }
}

void Server::HandleReadable(Worker* worker, Connection* conn) {
  // Edge-triggered: read until EAGAIN (or EOF) so no edge is lost.
  for (;;) {
    char* dst = conn->in.EnsureWritable(64 << 10);
    ssize_t n = recv(conn->fd, dst, 64 << 10, 0);
    if (n > 0) {
      conn->in.CommitWrite(static_cast<size_t>(n));
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConnection(worker, conn);
    return;
  }
  ProcessInput(conn);
  FlushOutput(worker, conn);
  // FlushOutput may already have closed (fatal send error / close_after_flush).
  if (worker->conns.find(conn->fd) == worker->conns.end()) {
    return;
  }
  if (conn->peer_eof) {
    CloseConnection(worker, conn);
  }
}

void Server::FlushOutput(Worker* worker, Connection* conn) {
  while (!conn->out.Empty()) {
    ssize_t n = send(conn->fd, conn->out.ReadPtr(), conn->out.Readable(), MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->out.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // EPOLLOUT edge will resume the flush
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(worker, conn);
    return;
  }
  if (conn->close_after_flush) {
    CloseConnection(worker, conn);
  }
}

void Server::CloseConnection(Worker* worker, Connection* conn) {
  const int fd = conn->fd;
  epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  worker->conns.erase(fd);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Command processing
// ---------------------------------------------------------------------------

void Server::ProcessInput(Connection* conn) {
  RespCommand cmd;
  for (;;) {
    size_t consumed = 0;
    std::string error;
    const RespParse result =
        conn->parser.Next(conn->in.ReadPtr(), conn->in.Readable(), &cmd, &consumed, &error);
    if (result == RespParse::kNeedMore) {
      conn->in.Consume(consumed);  // skipped blank inline lines, if any
      if (consumed == 0) {
        break;
      }
      continue;
    }
    if (result == RespParse::kError) {
      // The staged writes were complete, valid commands — commit them and
      // emit their replies before the fatal error, then close: there is
      // no way to resynchronize a corrupt frame stream.
      CommitPending(conn);
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn->scratch.clear();
      RespAppendError(&conn->scratch, "ERR " + error);
      conn->out.Append(conn->scratch);
      conn->close_after_flush = true;
      break;
    }
    if (cmd.args.empty()) {  // "*0\r\n": legal, meaningless — ignore like Redis
      conn->in.Consume(consumed);
      continue;
    }
    DispatchCommand(conn, cmd);
    conn->in.Consume(consumed);
    stats_.commands_processed.fetch_add(1, std::memory_order_relaxed);
    if (conn->close_after_flush) {
      break;  // QUIT: stop parsing, drain what we owe
    }
  }
  // End of the read burst: everything parseable is dispatched, so the
  // folded batch commits now — this is the network->group-commit batching
  // boundary.
  CommitPending(conn);
}

void Server::CommitPending(Connection* conn) {
  if (conn->pending.Empty()) {
    return;
  }
  WriteOptions wo;
  wo.sync = options_.sync_writes;
  const Status s = store_->Write(wo, &conn->pending);
  stats_.pipelined_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.batched_write_commands.fetch_add(conn->pending_replies.size(),
                                          std::memory_order_relaxed);
  if (s.ok()) {
    for (const std::string& reply : conn->pending_replies) {
      conn->out.Append(reply);
    }
  } else {
    conn->scratch.clear();
    RespAppendError(&conn->scratch, "ERR write failed: " + s.ToString());
    for (size_t i = 0; i < conn->pending_replies.size(); ++i) {
      conn->out.Append(conn->scratch);
    }
  }
  conn->pending.Clear();
  conn->pending_replies.clear();
  conn->pending_present.clear();
}

void Server::DispatchCommand(Connection* conn, const RespCommand& cmd) {
  const std::string verb = UpperVerb(cmd.args[0]);
  // Local reply buffer: CommitPending (called below) builds its error
  // replies in conn->scratch, so the two must not alias.
  std::string reply;

  // ---- write commands: stage into the pending fold batch ----
  if (verb == "SET") {
    if (cmd.args.size() != 3) {
      CommitPending(conn);
      AppendWrongArity(&reply, verb);
      conn->out.Append(reply);
      return;
    }
    conn->pending.Put(cmd.args[1], cmd.args[2]);
    conn->pending_present[cmd.args[1].ToString()] = true;
    conn->pending_replies.emplace_back("+OK\r\n");
    return;
  }
  if (verb == "MSET") {
    if (cmd.args.size() < 3 || cmd.args.size() % 2 != 1) {
      CommitPending(conn);
      AppendWrongArity(&reply, verb);
      conn->out.Append(reply);
      return;
    }
    for (size_t i = 1; i + 1 < cmd.args.size(); i += 2) {
      conn->pending.Put(cmd.args[i], cmd.args[i + 1]);
      conn->pending_present[cmd.args[i].ToString()] = true;
    }
    conn->pending_replies.emplace_back("+OK\r\n");
    return;
  }
  if (verb == "DEL") {
    if (cmd.args.size() < 2) {
      CommitPending(conn);
      AppendWrongArity(&reply, verb);
      conn->out.Append(reply);
      return;
    }
    // Redis semantics: reply with how many of the keys existed. Earlier
    // writes of this burst are still uncommitted, so consult the
    // burst-local overlay before the store.
    int64_t removed = 0;
    ReadOptions ro;
    ro.fill_stats = false;
    std::string ignored;
    for (size_t i = 1; i < cmd.args.size(); ++i) {
      std::string key = cmd.args[i].ToString();
      auto it = conn->pending_present.find(key);
      const bool exists = it != conn->pending_present.end()
                              ? it->second
                              : store_->Get(ro, cmd.args[i], &ignored).ok();
      if (exists) {
        ++removed;
      }
      conn->pending.Delete(cmd.args[i]);
      conn->pending_present[std::move(key)] = false;
    }
    RespAppendInteger(&reply, removed);
    conn->pending_replies.push_back(reply);
    return;
  }

  // ---- everything else reads (or is stateless): the staged writes must
  // be visible first, and replies must stay in command order ----
  CommitPending(conn);

  if (verb == "GET") {
    if (cmd.args.size() != 2) {
      AppendWrongArity(&reply, verb);
    } else {
      std::string value;
      const Status s = store_->Get(ReadOptions(), cmd.args[1], &value);
      if (s.ok()) {
        RespAppendBulk(&reply, value);
      } else if (s.IsNotFound()) {
        RespAppendNil(&reply);
      } else {
        RespAppendError(&reply, "ERR get failed: " + s.ToString());
      }
    }
  } else if (verb == "MGET") {
    if (cmd.args.size() < 2) {
      AppendWrongArity(&reply, verb);
    } else {
      RespAppendArrayHeader(&reply, cmd.args.size() - 1);
      std::string value;
      for (size_t i = 1; i < cmd.args.size(); ++i) {
        if (store_->Get(ReadOptions(), cmd.args[i], &value).ok()) {
          RespAppendBulk(&reply, value);
        } else {
          RespAppendNil(&reply);
        }
      }
    }
  } else if (verb == "SCAN") {
    // SCAN <low> <high> [COUNT n] — a range scan [low, high) over the
    // store's streaming iterator (an empty <high> is unbounded), replying
    // with a flat key,value,... array. This is deliberately FloDB's
    // range-scan surface behind a SCAN-shaped verb, not Redis's
    // cursor-based keyspace walk.
    size_t count = 0;
    bool ok = cmd.args.size() == 3 || cmd.args.size() == 5;
    if (ok && cmd.args.size() == 5) {
      if (UpperVerb(cmd.args[3]) == "COUNT") {
        count = static_cast<size_t>(strtoull(cmd.args[4].ToString().c_str(), nullptr, 10));
      } else {
        ok = false;
      }
    }
    if (!ok) {
      AppendWrongArity(&reply, verb);
    } else {
      if (count == 0 || count > kScanMaxEntries) {
        count = kScanMaxEntries;
      }
      auto it = store_->NewScanIterator(ReadOptions(), cmd.args[1], cmd.args[2]);
      std::vector<std::pair<std::string, std::string>> rows;
      for (; it->Valid() && rows.size() < count; it->Next()) {
        rows.emplace_back(it->key().ToString(), it->value().ToString());
      }
      if (!it->status().ok()) {
        RespAppendError(&reply, "ERR scan failed: " + it->status().ToString());
      } else {
        RespAppendArrayHeader(&reply, rows.size() * 2);
        for (const auto& [key, value] : rows) {
          RespAppendBulk(&reply, key);
          RespAppendBulk(&reply, value);
        }
      }
    }
  } else if (verb == "PING") {
    if (cmd.args.size() == 1) {
      RespAppendSimple(&reply, "PONG");
    } else if (cmd.args.size() == 2) {
      RespAppendBulk(&reply, std::string_view(cmd.args[1].data(), cmd.args[1].size()));
    } else {
      AppendWrongArity(&reply, verb);
    }
  } else if (verb == "ECHO") {
    if (cmd.args.size() != 2) {
      AppendWrongArity(&reply, verb);
    } else {
      RespAppendBulk(&reply, std::string_view(cmd.args[1].data(), cmd.args[1].size()));
    }
  } else if (verb == "INFO") {
    RespAppendBulk(&reply, BuildInfoReply());
  } else if (verb == "COMMAND") {
    // redis-cli probes COMMAND/COMMAND DOCS on connect; an empty array
    // keeps it happy without implementing introspection.
    RespAppendArrayHeader(&reply, 0);
  } else if (verb == "QUIT") {
    RespAppendSimple(&reply, "OK");
    conn->close_after_flush = true;
  } else {
    RespAppendError(&reply, "ERR unknown command '" + verb + "'");
  }
  conn->out.Append(reply);
}

std::string Server::BuildInfoReply() const {
  const ServerStats server = GetStats();
  const StoreStats store = store_->GetStats();
  std::string info;
  auto line = [&info](const char* key, uint64_t value) {
    info += key;
    info += ':';
    info += std::to_string(value);
    info += "\r\n";
  };
  info += "# Server\r\n";
  info += "store_name:" + store_->Name() + "\r\n";
  line("tcp_port", static_cast<uint64_t>(port_));
  line("worker_threads", workers_.size());
  line("sync_writes", options_.sync_writes ? 1 : 0);
  info += "# Clients\r\n";
  line("connected_clients", server.ConnectionsActive());
  line("connections_accepted", server.connections_accepted);
  line("connections_rejected", server.connections_rejected);
  info += "# Stats\r\n";
  line("commands_processed", server.commands_processed);
  line("pipelined_batches", server.pipelined_batches);
  line("batched_write_commands", server.batched_write_commands);
  line("protocol_errors", server.protocol_errors);
  line("bytes_in", server.bytes_in);
  line("bytes_out", server.bytes_out);
  info += "# Store\r\n";
  line("puts", store.puts);
  line("gets", store.gets);
  line("deletes", store.deletes);
  line("scans", store.scans);
  line("batch_writes", store.batch_writes);
  line("batch_entries", store.batch_entries);
  line("wal_syncs", store.wal_syncs);
  line("group_commit_groups", store.group_commit_groups);
  line("group_commit_writers", store.group_commit_writers);
  line("membuffer_adds", store.membuffer_adds);
  line("memtable_direct_adds", store.memtable_direct_adds);
  line("membuffer_rotations", store.membuffer_rotations);
  line("block_cache_hits", store.disk.block_cache_hits);
  line("block_cache_misses", store.disk.block_cache_misses);
  return info;
}

// ---------------------------------------------------------------------------
// Shutdown / drain
// ---------------------------------------------------------------------------

void Server::DrainWorker(Worker* worker) {
  // Commit pending batches of complete, already-received commands and
  // flush every buffered reply with a bounded blocking drain, so each
  // connection either got its acknowledgement or never will — nothing is
  // acked without having been committed.
  for (auto& [fd, conn] : worker->conns) {
    ProcessInput(conn.get());
    int waited_ms = 0;
    while (!conn->out.Empty() && waited_ms < kDrainTimeoutMs) {
      ssize_t n = send(fd, conn->out.ReadPtr(), conn->out.Readable(), MSG_NOSIGNAL);
      if (n > 0) {
        stats_.bytes_out.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
        conn->out.Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        const int step_ms = 50;
        poll(&pfd, 1, step_ms);
        waited_ms += step_ms;
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;  // peer gone; their loss
    }
    close(fd);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
  worker->conns.clear();
  // Accepted-but-unregistered stragglers.
  std::vector<int> fds;
  {
    MutexLock lock(worker->mu);
    fds.swap(worker->incoming);
  }
  for (int fd : fds) {
    close(fd);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::Shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) {
    return;
  }
  // 1. Stop accepting: no new connections can arrive after this joins.
  stop_accepting_.store(true, std::memory_order_release);
  if (acceptor_wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = write(acceptor_wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
  if (acceptor_thread_.joinable()) {
    acceptor_thread_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Drain the workers (each commits + flushes + closes its own
  // connections inside its loop thread, then exits).
  for (auto& worker : workers_) {
    {
      MutexLock lock(worker->mu);
      worker->stop = true;
    }
    uint64_t one = 1;
    ssize_t ignored = write(worker->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

ServerStats Server::GetStats() const {
  ServerStats s;
  s.connections_accepted = stats_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_closed = stats_.connections_closed.load(std::memory_order_relaxed);
  s.connections_rejected = stats_.connections_rejected.load(std::memory_order_relaxed);
  s.commands_processed = stats_.commands_processed.load(std::memory_order_relaxed);
  s.pipelined_batches = stats_.pipelined_batches.load(std::memory_order_relaxed);
  s.batched_write_commands = stats_.batched_write_commands.load(std::memory_order_relaxed);
  s.protocol_errors = stats_.protocol_errors.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  return s;
}

}  // namespace flodb
