// Server: RESP command round-trips over real loopback sockets, pipelined
// bursts folding into grouped WriteBatch commits, protocol-error
// handling, concurrent connections, and the drain-on-shutdown durability
// guarantee (acked sync writes survive a reopen), and the client's
// handling of a hostile reply header.

#include "flodb/net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"
#include "flodb/net/resp_client.h"

namespace flodb {
namespace {

struct TestServer {
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<FloDB> store;
  std::unique_ptr<Server> server;

  RespClient NewClient() const {
    RespClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    return client;
  }
};

TestServer StartTestServer(bool sync_writes = false,
                           const RespLimits& limits = RespLimits()) {
  TestServer ts;
  ts.env = std::make_unique<MemEnv>();
  FloDbOptions options;
  options.memory_budget_bytes = 4u << 20;
  options.enable_wal = true;
  options.disk.env = ts.env.get();
  options.disk.path = "/db";
  EXPECT_TRUE(FloDB::Open(options, &ts.store).ok());

  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.workers = 2;
  server_options.sync_writes = sync_writes;
  server_options.limits = limits;
  EXPECT_TRUE(Server::Start(server_options, ts.store.get(), &ts.server).ok());
  EXPECT_GT(ts.server->port(), 0);
  return ts;
}

TEST(ServerLoopbackTest, CoreCommandRoundTrips) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  RespReply reply;

  ASSERT_TRUE(client.Command({"PING"}, &reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kSimple);
  EXPECT_EQ(reply.str, "PONG");

  ASSERT_TRUE(client.Command({"SET", "user:1", "alice"}, &reply).ok());
  EXPECT_TRUE(reply.IsOk());

  ASSERT_TRUE(client.Command({"GET", "user:1"}, &reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kBulk);
  EXPECT_EQ(reply.str, "alice");

  ASSERT_TRUE(client.Command({"GET", "missing"}, &reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kNil);

  ASSERT_TRUE(client.Command({"MSET", "a", "1", "b", "2"}, &reply).ok());
  EXPECT_TRUE(reply.IsOk());

  ASSERT_TRUE(client.Command({"MGET", "a", "b", "nope"}, &reply).ok());
  ASSERT_EQ(reply.type, RespReply::Type::kArray);
  ASSERT_EQ(reply.elements.size(), 3u);
  EXPECT_EQ(reply.elements[0].str, "1");
  EXPECT_EQ(reply.elements[1].str, "2");
  EXPECT_EQ(reply.elements[2].type, RespReply::Type::kNil);

  // DEL replies with how many of the keys existed.
  ASSERT_TRUE(client.Command({"DEL", "a", "nope"}, &reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kInteger);
  EXPECT_EQ(reply.integer, 1);
  ASSERT_TRUE(client.Command({"GET", "a"}, &reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kNil);

  ASSERT_TRUE(client.Command({"ECHO", "hello"}, &reply).ok());
  EXPECT_EQ(reply.str, "hello");
}

TEST(ServerLoopbackTest, ScanRangeIsOrderedAndHighExclusive) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  RespReply reply;
  for (const char* key : {"k3", "k1", "k4", "k2", "x9"}) {
    ASSERT_TRUE(client.Command({"SET", key, std::string("v-") + key}, &reply).ok());
  }
  ASSERT_TRUE(client.Command({"SCAN", "k1", "k4"}, &reply).ok());
  ASSERT_EQ(reply.type, RespReply::Type::kArray);
  ASSERT_EQ(reply.elements.size(), 6u);  // k1,k2,k3 as key,value pairs
  EXPECT_EQ(reply.elements[0].str, "k1");
  EXPECT_EQ(reply.elements[2].str, "k2");
  EXPECT_EQ(reply.elements[4].str, "k3");
  EXPECT_EQ(reply.elements[5].str, "v-k3");

  // COUNT clamps the result; empty high bound = unbounded above.
  ASSERT_TRUE(client.Command({"SCAN", "k1", "", "COUNT", "2"}, &reply).ok());
  ASSERT_EQ(reply.elements.size(), 4u);
}

// Forwards every call to a real store and records the chunk size of the
// last range read opened through it.
class ChunkRecordingStore final : public KVStore {
 public:
  explicit ChunkRecordingStore(KVStore* base) : base_(base) {}

  Status Write(const WriteOptions& options, WriteBatch* batch) override {
    return base_->Write(options, batch);
  }
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override {
    return base_->Get(options, key, value);
  }
  std::unique_ptr<ScanIterator> NewScanIterator(const ReadOptions& options, const Slice& low_key,
                                                const Slice& high_key) override {
    last_chunk_size.store(options.scan_chunk_size);
    return base_->NewScanIterator(options, low_key, high_key);
  }
  Status FlushAll() override { return base_->FlushAll(); }
  StoreStats GetStats() const override { return base_->GetStats(); }
  std::string Name() const override { return base_->Name(); }

  std::atomic<size_t> last_chunk_size{0};

 private:
  KVStore* const base_;
};

// SCAN ... COUNT n reads exactly n entries: one chunk of n, not a default
// chunk cut short after n.
TEST(ServerLoopbackTest, ScanCountSizesTheStoreRead) {
  MemEnv env;
  FloDbOptions options;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  ChunkRecordingStore store(db.get());
  ServerOptions server_options;
  server_options.port = 0;
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(server_options, &store, &server).ok());

  RespClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  RespReply reply;
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    ASSERT_TRUE(client.Command({"SET", key, "v"}, &reply).ok());
  }
  ASSERT_TRUE(client.Command({"SCAN", "k", "", "COUNT", "2"}, &reply).ok());
  ASSERT_EQ(reply.type, RespReply::Type::kArray);
  ASSERT_EQ(reply.elements.size(), 4u);
  EXPECT_EQ(reply.elements[0].str, "k1");
  EXPECT_EQ(reply.elements[2].str, "k2");
  EXPECT_EQ(store.last_chunk_size.load(), 2u);
  server->Shutdown();
}

TEST(ServerLoopbackTest, PipelinedBurstFoldsIntoFewerBatches) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  const ServerStats before = ts.server->GetStats();

  constexpr int kCommands = 64;
  for (int i = 0; i < kCommands; ++i) {
    client.QueueCommand({"SET", "p:" + std::to_string(i), "v" + std::to_string(i)});
  }
  ASSERT_TRUE(client.Flush().ok());
  RespReply reply;
  for (int i = 0; i < kCommands; ++i) {
    ASSERT_TRUE(client.ReadReply(&reply).ok());
    EXPECT_TRUE(reply.IsOk()) << "command " << i;
  }

  // The acceptance bar: pipelined writes land as grouped commits, so the
  // server must have issued strictly fewer WriteBatch commits than it
  // processed write commands (loopback delivers a 2KB burst in one or two
  // reads, so typically 1-2 batches — but only the strict inequality is
  // guaranteed).
  const ServerStats after = ts.server->GetStats();
  const uint64_t batches = after.pipelined_batches - before.pipelined_batches;
  const uint64_t folded = after.batched_write_commands - before.batched_write_commands;
  EXPECT_EQ(folded, static_cast<uint64_t>(kCommands));
  EXPECT_GE(batches, 1u);
  EXPECT_LT(batches, static_cast<uint64_t>(kCommands));

  // And the data actually landed.
  RespClient verify = ts.NewClient();
  ASSERT_TRUE(verify.Command({"GET", "p:63"}, &reply).ok());
  EXPECT_EQ(reply.str, "v63");
}

TEST(ServerLoopbackTest, ReadsInsidePipelineSeeEarlierWritesOfTheSameBurst) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  client.QueueCommand({"SET", "x", "1"});
  client.QueueCommand({"GET", "x"});
  client.QueueCommand({"SET", "x", "2"});
  client.QueueCommand({"GET", "x"});
  client.QueueCommand({"DEL", "x"});
  client.QueueCommand({"GET", "x"});
  ASSERT_TRUE(client.Flush().ok());

  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_TRUE(reply.IsOk());
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.str, "1");
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_TRUE(reply.IsOk());
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.str, "2");
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.integer, 1);  // x existed (within this very burst)
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kNil);
}

TEST(ServerLoopbackTest, DelExistenceSeesUncommittedBurstWrites) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  // SET then DEL of a brand-new key inside one burst: the DEL must count
  // the uncommitted SET (burst-local overlay), not consult stale state.
  client.QueueCommand({"SET", "fresh", "v"});
  client.QueueCommand({"DEL", "fresh"});
  client.QueueCommand({"DEL", "fresh"});
  ASSERT_TRUE(client.Flush().ok());
  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_TRUE(reply.IsOk());
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.integer, 1);
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.integer, 0);  // already deleted within the burst
}

TEST(ServerLoopbackTest, GarbageCommandGetsErrorWithoutCorruptingConnection) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  // Inline garbage is a well-formed (if meaningless) command: the server
  // must reply -ERR and keep the connection fully usable.
  client.QueueCommand({"DEFINITELYNOTACOMMAND", "x", "y"});
  ASSERT_TRUE(client.Flush().ok());
  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kError);

  ASSERT_TRUE(client.Command({"PING"}, &reply).ok());
  EXPECT_EQ(reply.str, "PONG");

  ASSERT_TRUE(client.Command({"SET"}, &reply).ok());  // wrong arity
  EXPECT_EQ(reply.type, RespReply::Type::kError);
  ASSERT_TRUE(client.Command({"PING"}, &reply).ok());
  EXPECT_EQ(reply.str, "PONG");
}

TEST(ServerLoopbackTest, OversizedFrameIsRejectedAndCloses) {
  RespLimits limits;
  limits.max_bulk_bytes = 1024;
  TestServer ts = StartTestServer(/*sync_writes=*/false, limits);
  RespClient client = ts.NewClient();
  client.QueueCommand({"SET", "k", std::string(4096, 'x')});
  ASSERT_TRUE(client.Flush().ok());
  RespReply reply;
  ASSERT_TRUE(client.ReadReply(&reply).ok());
  EXPECT_EQ(reply.type, RespReply::Type::kError);
  // The stream is unrecoverable after a framing violation: the server
  // closes after flushing the error.
  EXPECT_FALSE(client.ReadReply(&reply).ok());
}

TEST(ServerLoopbackTest, InfoReportsServerAndStoreCounters) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  RespReply reply;
  ASSERT_TRUE(client.Command({"SET", "k", "v"}, &reply).ok());
  ASSERT_TRUE(client.Command({"GET", "k"}, &reply).ok());
  ASSERT_TRUE(client.Command({"INFO"}, &reply).ok());
  ASSERT_EQ(reply.type, RespReply::Type::kBulk);
  for (const char* field :
       {"connections_accepted:", "commands_processed:", "pipelined_batches:", "bytes_in:",
        "bytes_out:", "puts:", "gets:", "batch_writes:", "store_name:FloDB"}) {
    EXPECT_NE(reply.str.find(field), std::string::npos) << "INFO missing " << field;
  }
}

TEST(ServerLoopbackTest, ConcurrentConnectionsDontInterfere) {
  TestServer ts = StartTestServer();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ts, &failures, t] {
      RespClient client;
      if (!client.Connect("127.0.0.1", ts.server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      RespReply reply;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
        if (!client.Command({"SET", key, key}, &reply).ok() || !reply.IsOk()) {
          failures.fetch_add(1);
          return;
        }
        if (!client.Command({"GET", key}, &reply).ok() || reply.str != key) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = ts.server->GetStats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_GE(stats.commands_processed, static_cast<uint64_t>(kThreads * kOpsPerThread * 2));
}

// The drain guarantee (ISSUE acceptance): every write acknowledged before
// a SIGTERM-style Shutdown survives closing and reopening the store.
// sync_writes=true makes each ack fsync-durable; the clean close then
// guarantees recovery sees them all.
TEST(ServerLoopbackTest, DrainOnShutdownLosesNoAckedSyncWrites) {
  TestServer ts = StartTestServer(/*sync_writes=*/true);
  RespClient client = ts.NewClient();

  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; ++i) {
    client.QueueCommand({"SET", "durable:" + std::to_string(i), "v" + std::to_string(i)});
  }
  ASSERT_TRUE(client.Flush().ok());
  RespReply reply;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client.ReadReply(&reply).ok());
    ASSERT_TRUE(reply.IsOk());  // every one of these is now ACKED
  }

  // SIGTERM path: drain the server, then close the store cleanly.
  ts.server->Shutdown();
  ts.server.reset();
  FloDbOptions options = ts.store->options();
  ts.store.reset();

  // Reopen from the same (in-memory) filesystem: all acked writes present.
  std::unique_ptr<FloDB> reopened;
  ASSERT_TRUE(FloDB::Open(options, &reopened).ok());
  for (int i = 0; i < kKeys; ++i) {
    std::string value;
    ASSERT_TRUE(reopened->Get("durable:" + std::to_string(i), &value).ok()) << "key " << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(ServerLoopbackTest, ShutdownFlushesInFlightRepliesBeforeClosing) {
  TestServer ts = StartTestServer();
  RespClient client = ts.NewClient();
  RespReply reply;
  ASSERT_TRUE(client.Command({"SET", "k", "v"}, &reply).ok());

  ts.server->Shutdown();
  // Post-shutdown: the connection is closed (reads fail), and new
  // connections are refused.
  client.QueueCommand({"PING"});
  if (client.Flush().ok()) {
    EXPECT_FALSE(client.ReadReply(&reply).ok());
  }
  RespClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", ts.server->port()).ok());
}

TEST(ServerLoopbackTest, ShutdownIsIdempotent) {
  TestServer ts = StartTestServer();
  ts.server->Shutdown();
  ts.server->Shutdown();
  const ServerStats stats = ts.server->GetStats();
  EXPECT_EQ(stats.ConnectionsActive(), 0u);
}

TEST(ServerLoopbackTest, ClientRejectsHugeArrayHeaderWithoutAllocating) {
  // A raw socket stands in for a hostile server: on accept it sends an
  // array header claiming 2^40 elements, no element bytes, and closes.
  const int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread fake_server([listen_fd] {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const std::string header = "*1099511627776\r\n";
      EXPECT_EQ(send(fd, header.data(), header.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(header.size()));
      close(fd);
    }
  });

  RespClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok());
  RespReply reply;
  EXPECT_FALSE(client.ReadReply(&reply).ok());
  fake_server.join();
  close(listen_fd);
}

}  // namespace
}  // namespace flodb
