// GroupCommitLog: the group-commit queue behind FloDB's WAL (DESIGN.md
// §10). Checks that concurrent sync
// writers share fsyncs and every acknowledged record replays exactly once
// in its writer's order, and one case per per-writer outcome rule: a
// broken log fails everyone, an append failure at writer i fails i and
// later, a sync failure fails only the sync writers, and any failure
// latches the log broken until Repair.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flodb/core/write_batch.h"
#include "flodb/disk/fault_env.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/wal.h"

namespace flodb {
namespace {

std::string LogName(uint64_t number) { return "/log-" + std::to_string(number); }

// Commits a one-entry batch record holding `key`.
Status CommitKey(GroupCommitLog* log, const std::string& key, bool sync,
                 int* token_slot = nullptr) {
  WriteBatch batch;
  batch.Put(Slice(key), Slice("v"));
  return log->Commit(WalRecord::Batch(1, Slice(batch.rep())), sync, token_slot);
}

class GroupCommitLogTest : public ::testing::Test {
 protected:
  GroupCommitLogTest() : log_(&fault_, LogName, [this] { BeforeSync(); }) {}

  struct GroupOutcome {
    Status blocker;
    std::vector<Status> followers;
  };

  // Forms one group deterministically. A sync "blocker" commit leads a
  // group of its own and is parked inside before_sync, with the queue lock
  // dropped; one follower per entry of `sync` then queues behind it, in
  // order. `at_release` runs once all are queued, just before the blocker
  // goes on to its fsync; `at_group_sync` (if any) replaces the next
  // before_sync, i.e. the followers' group's.
  GroupOutcome CommitOneGroup(const std::vector<bool>& sync,
                              const std::function<void()>& at_release = nullptr,
                              std::function<void()> at_group_sync = nullptr) {
    GroupOutcome outcome;
    outcome.followers.resize(sync.size());
    park_.store(true);
    std::thread blocker([&] { outcome.blocker = CommitKey(&log_, "blocker", true); });
    while (!parked_.load()) {
      std::this_thread::yield();
    }
    std::vector<std::thread> followers;
    for (size_t i = 0; i < sync.size(); ++i) {
      followers.emplace_back([&, i] {
        outcome.followers[i] = CommitKey(&log_, "follower" + std::to_string(i), sync[i]);
      });
      while (log_.QueuedWriters() < i + 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (at_release) {
      at_release();
    }
    group_sync_ = std::move(at_group_sync);
    parked_.store(false);
    park_.store(false);
    blocker.join();
    for (std::thread& t : followers) {
      t.join();
    }
    group_sync_ = nullptr;
    return outcome;
  }

  // Keys of log `number`'s batch records, in log order.
  std::vector<std::string> Replay(uint64_t number) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(base_.NewSequentialFile(LogName(number), &file).ok());
    WalReader reader(std::move(file));
    std::vector<std::string> keys;
    Status s = reader.ReplayUpdates(
        [&](const Slice& key, const Slice&, ValueType) { keys.push_back(key.ToString()); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return keys;
  }

  MemEnv base_;
  FaultInjectionEnv fault_{&base_};
  GroupCommitLog log_;

 private:
  void BeforeSync() {
    if (park_.load()) {
      parked_.store(true);
      while (park_.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else if (group_sync_) {
      group_sync_();
    }
  }

  std::atomic<bool> park_{false};
  std::atomic<bool> parked_{false};
  std::function<void()> group_sync_;  // published to the leader by park_
};

TEST_F(GroupCommitLogTest, ConcurrentSyncWritersShareFsyncsAndReplayOnceInOrder) {
  fault_.SetSyncDelayMicros(500);
  ASSERT_TRUE(log_.Open(1).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!CommitKey(&log_, std::to_string(t) + ":" + std::to_string(i), true).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  const uint64_t commits = kThreads * kPerThread;
  EXPECT_EQ(log_.committed_writers(), commits);
  EXPECT_EQ(log_.syncs(), fault_.sync_count());
  EXPECT_LE(log_.syncs(), commits / 2) << "sync writers must share fsyncs";
  EXPECT_EQ(log_.groups(), log_.syncs()) << "every group of sync writers issues one fsync";
  log_.Close();

  std::vector<int> next(kThreads, 0);
  for (const std::string& key : Replay(1)) {
    const size_t colon = key.find(':');
    const int t = std::stoi(key.substr(0, colon));
    const int i = std::stoi(key.substr(colon + 1));
    ASSERT_EQ(i, next[t]) << "writer " << t << " replayed out of order or twice";
    ++next[t];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(next[t], kPerThread) << "writer " << t << " lost acknowledged records";
  }
}

TEST_F(GroupCommitLogTest, UnopenedLogFailsEveryWriter) {
  fault_.FailNewWritableFiles(true);
  EXPECT_FALSE(log_.Open(1).ok());
  EXPECT_TRUE(log_.broken());
  EXPECT_TRUE(CommitKey(&log_, "a", true).IsIOError());
  EXPECT_TRUE(CommitKey(&log_, "b", false).IsIOError());
  EXPECT_EQ(log_.groups(), 0u);
  EXPECT_EQ(fault_.append_count(), 0u);
}

TEST_F(GroupCommitLogTest, BrokenLogFailsTheWholeGroup) {
  ASSERT_TRUE(log_.Open(1).ok());
  const uint64_t appends_before = fault_.append_count();
  // The blocker's own fsync fails and latches the log before the queued
  // group runs: sync and non-sync followers alike fail without appending.
  GroupOutcome outcome = CommitOneGroup({true, false}, [&] { fault_.FailSyncs(true); });
  EXPECT_TRUE(outcome.blocker.IsIOError());
  for (const Status& s : outcome.followers) {
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
  }
  EXPECT_EQ(fault_.append_count(), appends_before + 1) << "only the blocker appended";
  EXPECT_EQ(log_.groups(), 0u);
}

TEST_F(GroupCommitLogTest, AppendFailureFailsThatWriterAndLater) {
  ASSERT_TRUE(log_.Open(1).ok());
  // The blocker appended already; the first follower's append succeeds and
  // the second one's fails.
  auto fail_second_append = [&] { fault_.FailAppendAfter(1, /*torn=*/false); };
  GroupOutcome outcome = CommitOneGroup({false, false, false}, fail_second_append);
  ASSERT_TRUE(outcome.blocker.ok());
  EXPECT_TRUE(outcome.followers[0].ok());
  EXPECT_TRUE(outcome.followers[1].IsIOError());
  EXPECT_TRUE(outcome.followers[2].IsIOError());
  EXPECT_EQ(log_.committed_writers(), 2u);

  // The failure latches: the device has healed, yet commits keep failing
  // until Repair retires the damaged file and opens the next one.
  fault_.ClearFaults();
  EXPECT_TRUE(log_.broken());
  EXPECT_TRUE(CommitKey(&log_, "latched", false).IsIOError());
  log_.Repair();
  EXPECT_FALSE(log_.broken());
  ASSERT_TRUE(CommitKey(&log_, "repaired", true).ok());
  log_.Close();
  EXPECT_EQ(Replay(1), (std::vector<std::string>{"blocker", "follower0"}));
  EXPECT_EQ(Replay(2), (std::vector<std::string>{"repaired"}));
}

TEST_F(GroupCommitLogTest, SyncFailureFailsOnlyTheSyncWriters) {
  ASSERT_TRUE(log_.Open(1).ok());
  auto fail_group_fsync = [&] { fault_.FailSyncs(true); };
  GroupOutcome outcome = CommitOneGroup({true, false, true}, nullptr, fail_group_fsync);
  ASSERT_TRUE(outcome.blocker.ok());
  EXPECT_TRUE(outcome.followers[0].IsIOError());
  EXPECT_TRUE(outcome.followers[1].ok()) << "a non-sync writer needs only its append";
  EXPECT_TRUE(outcome.followers[2].IsIOError());
  EXPECT_EQ(log_.syncs(), 2u) << "the failed fsync was issued";
  fault_.ClearFaults();
  EXPECT_TRUE(log_.broken());
  EXPECT_TRUE(CommitKey(&log_, "latched", false).IsIOError());
}

TEST_F(GroupCommitLogTest, MixedGroupIssuesOneFsyncAndSyncFreeGroupsNone) {
  ASSERT_TRUE(log_.Open(1).ok());
  GroupOutcome mixed = CommitOneGroup({false, true, false});
  ASSERT_TRUE(mixed.blocker.ok());
  for (const Status& s : mixed.followers) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(log_.syncs(), 2u) << "one for the blocker, one for the whole mixed group";
  EXPECT_EQ(log_.groups(), 2u);
  EXPECT_EQ(log_.committed_writers(), 4u);

  GroupOutcome sync_free = CommitOneGroup({false, false});
  ASSERT_TRUE(sync_free.blocker.ok());
  for (const Status& s : sync_free.followers) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(log_.syncs(), 3u) << "the blocker's only; the sync-free group issues none";
  EXPECT_EQ(fault_.sync_count(), 3u);
}

TEST_F(GroupCommitLogTest, RotationSeesTokensOrMovesWritersToTheNextEpoch) {
  ASSERT_TRUE(log_.Open(1).ok());
  int old_slot = -1;
  ASSERT_TRUE(CommitKey(&log_, "old", false, &old_slot).ok());
  ASSERT_GE(old_slot, 0);
  EXPECT_TRUE(log_.TokensOutstanding(old_slot));

  int drain_slot = -1;
  std::vector<uint64_t> retired;
  ASSERT_TRUE(log_.Rotate(&drain_slot, &retired).ok());
  EXPECT_EQ(drain_slot, old_slot);
  EXPECT_EQ(retired, (std::vector<uint64_t>{1}));

  int new_slot = -1;
  ASSERT_TRUE(CommitKey(&log_, "new", false, &new_slot).ok());
  EXPECT_NE(new_slot, drain_slot) << "a writer after the rotation lands in the new epoch";
  log_.ReleaseToken(old_slot);
  EXPECT_FALSE(log_.TokensOutstanding(drain_slot));
  EXPECT_TRUE(log_.TokensOutstanding(new_slot));
  log_.ReleaseToken(new_slot);
  // A commit that asks for no token takes none.
  ASSERT_TRUE(CommitKey(&log_, "untracked", false).ok());
  EXPECT_FALSE(log_.TokensOutstanding(new_slot));
  log_.Close();
  EXPECT_EQ(Replay(1), (std::vector<std::string>{"old"}));
  EXPECT_EQ(Replay(2), (std::vector<std::string>{"new", "untracked"}));
}

}  // namespace
}  // namespace flodb
