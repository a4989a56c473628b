// Configuration-sweep (ablation) tests: every FloDbOptions knob of the
// memory component (Membuffer share, scan restarts, master reuse, drain
// insert mode) must preserve correctness — the same randomized workload
// passes against a reference model under every configuration, and the
// mechanism-specific stats confirm the knob actually engaged.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/common/random.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/membuffer.h"

namespace flodb {
namespace {

using bench::SpreadKey;

constexpr uint64_t kSpace = 1 << 16;
std::string K(uint64_t i) { return EncodeKey(SpreadKey(i, kSpace)); }

struct AblationConfig {
  const char* name;
  double membuffer_fraction = 0.25;
  int restart_threshold = 3;
  int master_reuse = 0;
  bool multi_insert = true;
};

class FloDBAblationTest : public ::testing::TestWithParam<AblationConfig> {};

TEST_P(FloDBAblationTest, RandomizedWorkloadMatchesModel) {
  const AblationConfig& ablation = GetParam();
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 512 << 10;
  options.membuffer_fraction = ablation.membuffer_fraction;
  options.scan_restart_threshold = ablation.restart_threshold;
  options.scan_master_reuse_limit = ablation.master_reuse;
  options.use_multi_insert = ablation.multi_insert;
  options.disk.env = &env;
  options.disk.path = "/db";
  options.disk.sstable_target_bytes = 16 << 10;
  options.disk.l0_compaction_trigger = 3;
  options.disk.l1_max_bytes = 64 << 10;

  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok()) << ablation.name;

  std::map<std::string, std::string> model;
  Random64 rng(99);
  for (int op = 0; op < 4000; ++op) {
    const std::string key = K(rng.Uniform(400));
    const uint64_t dice = rng.Uniform(10);
    if (dice < 5) {
      const std::string value = "v" + std::to_string(op);
      ASSERT_TRUE(db->Put(Slice(key), Slice(value)).ok());
      model[key] = value;
    } else if (dice < 7) {
      ASSERT_TRUE(db->Delete(Slice(key)).ok());
      model.erase(key);
    } else {
      std::string value;
      Status s = db->Get(Slice(key), &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << ablation.name << " op " << op;
      } else {
        ASSERT_TRUE(s.ok()) << ablation.name << " op " << op;
        ASSERT_EQ(value, it->second) << ablation.name << " op " << op;
      }
    }
    if (op % 1500 == 1499) {
      ASSERT_TRUE(db->FlushAll().ok());
    }
  }

  // Final full scan vs model. (Master-reuse configs are serializable; a
  // FlushAll drains everything so the final scan still sees the world.)
  ASSERT_TRUE(db->FlushAll().ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(db->Scan(Slice(), Slice(), 0, &all).ok());
  ASSERT_EQ(all.size(), model.size()) << ablation.name;
  auto expected = model.begin();
  for (size_t i = 0; i < all.size(); ++i, ++expected) {
    ASSERT_EQ(all[i].first, expected->first) << ablation.name;
    ASSERT_EQ(all[i].second, expected->second) << ablation.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, FloDBAblationTest,
    ::testing::Values(
        AblationConfig{.name = "Defaults"},
        AblationConfig{.name = "TinyMembuffer", .membuffer_fraction = 0.05},
        AblationConfig{.name = "HugeMembuffer", .membuffer_fraction = 0.75},
        AblationConfig{.name = "HairTriggerFallback", .restart_threshold = 1},
        AblationConfig{.name = "SeqReuse", .master_reuse = 8},
        AblationConfig{.name = "SimpleInsertDrain", .multi_insert = false}),
    [](const ::testing::TestParamInfo<AblationConfig>& info) { return info.param.name; });

TEST(FloDBPressureTest, VaryingValueSizesTriggerRotation) {
  // In-place updates with changing sizes orphan Membuffer records; the
  // drain thread must eventually rotate the buffer (arena pressure) and
  // nothing may be lost.
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 256 << 10;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  Random64 rng(5);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 30'000; ++op) {
    const std::string key = K(rng.Uniform(16));  // hot keys, wild sizes
    std::string value(static_cast<size_t>(rng.Uniform(2000)), static_cast<char>('a' + op % 26));
    ASSERT_TRUE(db->Put(Slice(key), Slice(value)).ok());
    model[key] = std::move(value);
  }
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(db->Get(Slice(key), &value).ok());
    EXPECT_EQ(value, expected);
  }
  // Arena pressure persists until a rotation happens; on a loaded single
  // core the drain thread may not have run during the write burst yet, so
  // wait (bounded) for it to catch up.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->GetStats().membuffer_rotations == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GT(db->GetStats().membuffer_rotations, 0u)
      << "arena pressure from orphaned records must trigger rotations";
}

TEST(FloDBMembufferSplitTest, FractionControlsSpillRate) {
  // Distinct keys spread over the whole keyspace: the Membuffer partition
  // is the top key bits (§4.3), so they must reach every partition.
  constexpr uint64_t kKeys = 3000;
  constexpr size_t kBudget = 4 << 20;
  const MemBuffer::Options mbf_defaults;
  const std::string value(64, 'x');
  std::vector<std::string> keys;
  std::set<uint64_t> partitions;
  for (uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back(EncodeKey(SpreadKey(i, kKeys)));
    partitions.insert(DecodeKey(Slice(keys.back())) >> (64 - mbf_defaults.partition_bits));
  }
  ASSERT_EQ(partitions.size(), uint64_t{1} << mbf_defaults.partition_bits);

  // Draining only ever frees Membuffer room, so a store's spills are
  // bounded by those of an equally sized Membuffer that is never drained.
  // That bound depends on the fraction alone, not on drain timing.
  auto undrained_spills = [&](double fraction) {
    MemBuffer::Options mo;
    mo.capacity_bytes = static_cast<size_t>(static_cast<double>(kBudget) * fraction);
    MemBuffer mbf(mo);
    uint64_t spills = 0;
    for (const std::string& key : keys) {
      if (mbf.Add(Slice(key), Slice(value), ValueType::kValue) == MemBuffer::AddResult::kFull) {
        ++spills;
      }
    }
    return spills;
  };
  MemEnv env;
  auto store_spills = [&](double fraction) {
    FloDbOptions options;
    options.memory_budget_bytes = kBudget;
    options.membuffer_fraction = fraction;
    options.disk.env = &env;
    options.disk.path = "/db" + std::to_string(fraction);
    std::unique_ptr<FloDB> db;
    EXPECT_TRUE(FloDB::Open(options, &db).ok());
    for (const std::string& key : keys) {
      EXPECT_TRUE(db->Put(Slice(key), Slice(value)).ok());
    }
    const StoreStats stats = db->GetStats();
    EXPECT_EQ(stats.membuffer_adds + stats.memtable_direct_adds, kKeys);
    return stats.memtable_direct_adds;
  };

  const uint64_t small_bound = undrained_spills(0.05);
  EXPECT_GT(small_bound, kKeys / 4) << "a 5% Membuffer cannot hold the working set";
  EXPECT_EQ(undrained_spills(0.60), 0u) << "a 60% Membuffer holds every key";
  EXPECT_LE(store_spills(0.05), small_bound);
  EXPECT_EQ(store_spills(0.60), 0u) << "the bigger Membuffer must absorb every write";
}

}  // namespace
}  // namespace flodb
