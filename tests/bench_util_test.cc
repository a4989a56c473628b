// Benchmark-harness utilities: workload generators (mixes, skew, spread
// mapping), loaders, latency recorder, and the throughput driver.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "flodb/bench_util/driver.h"
#include "flodb/bench_util/latency.h"
#include "flodb/bench_util/report.h"
#include "flodb/bench_util/workload.h"
#include "flodb/common/key_codec.h"
#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"

namespace flodb::bench {
namespace {

TEST(WorkloadTest, OpMixMatchesFractions) {
  WorkloadSpec spec;
  spec.get_fraction = 0.5;
  spec.put_fraction = 0.3;
  spec.delete_fraction = 0.1;
  spec.scan_fraction = 0.1;
  WorkloadGenerator gen(spec, 0);
  int counts[4] = {};
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    counts[static_cast<int>(gen.NextOp())]++;
  }
  EXPECT_NEAR(counts[0], kN * 0.5, kN * 0.02);
  EXPECT_NEAR(counts[1], kN * 0.3, kN * 0.02);
  EXPECT_NEAR(counts[2], kN * 0.1, kN * 0.01);
  EXPECT_NEAR(counts[3], kN * 0.1, kN * 0.01);
}

TEST(WorkloadTest, UniformKeysStayInRange) {
  WorkloadSpec spec;
  spec.key_space = 1000;
  WorkloadGenerator gen(spec, 1);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(gen.NextKey(), 1000u);
  }
}

TEST(WorkloadTest, SkewConcentratesOnHotKeys) {
  WorkloadSpec spec;
  spec.key_space = 10'000;
  spec.skewed = true;
  spec.hot_key_fraction = 0.02;
  spec.hot_access_fraction = 0.98;
  WorkloadGenerator gen(spec, 2);
  const uint64_t hot_limit = 200;  // 2% of 10k
  int hot = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (gen.NextKey() < hot_limit) {
      ++hot;
    }
  }
  EXPECT_NEAR(hot, kN * 0.98, kN * 0.01);
}

TEST(WorkloadTest, SpreadKeyPreservesOrderAndSpansDomain) {
  constexpr uint64_t kSpace = 100'000;
  EXPECT_LT(SpreadKey(1, kSpace), SpreadKey(2, kSpace));
  EXPECT_LT(SpreadKey(0, kSpace), SpreadKey(kSpace - 1, kSpace));
  // The top key must land in the highest partition (top bits set).
  EXPECT_GT(SpreadKey(kSpace - 1, kSpace) >> 60, 14u);
}

TEST(WorkloadTest, ValueForKeyIsDeterministic) {
  EXPECT_EQ(ValueForKey(7, 64), ValueForKey(7, 64));
  EXPECT_NE(ValueForKey(7, 64), ValueForKey(8, 64));
  EXPECT_EQ(ValueForKey(7, 64).size(), 64u);
}

TEST(WorkloadTest, GeneratorValueHasRequestedSize) {
  WorkloadSpec spec;
  spec.value_bytes = 256;
  WorkloadGenerator gen(spec, 0);
  EXPECT_EQ(gen.NextValue().size(), 256u);
  EXPECT_EQ(gen.NextValue().size(), 256u);
}

TEST(LatencyTest, PercentilesOfKnownDistribution) {
  LatencyRecorder recorder;
  for (uint64_t i = 1; i <= 1000; ++i) {
    recorder.Record(i * 1000);  // 1..1000 microseconds
  }
  EXPECT_NEAR(static_cast<double>(recorder.PercentileNanos(50)), 500'000.0, 20'000.0);
  EXPECT_NEAR(static_cast<double>(recorder.PercentileNanos(99)), 990'000.0, 20'000.0);
  EXPECT_EQ(recorder.Count(), 1000u);
}

TEST(LatencyTest, MergeCombinesStreams) {
  LatencyRecorder a, b;
  for (uint64_t i = 0; i < 100; ++i) {
    a.Record(1000);
    b.Record(9000);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200u);
  const uint64_t p50 = a.PercentileNanos(50);
  EXPECT_GE(p50, 1000u);
  EXPECT_LE(p50, 9000u);
}

TEST(LatencyTest, MergeWeightsFullReservoirsByCount) {
  // 10,000 samples at 1 us against 100 at 1 ms, both reservoirs full: the
  // slow stream is 1% of the merged one, whichever side merges into which.
  for (const bool fast_first : {true, false}) {
    LatencyRecorder fast(100);
    LatencyRecorder slow(100);
    for (int i = 0; i < 10'000; ++i) {
      fast.Record(1'000);
    }
    for (int i = 0; i < 100; ++i) {
      slow.Record(1'000'000);
    }
    LatencyRecorder& merged = fast_first ? fast : slow;
    merged.Merge(fast_first ? slow : fast);
    EXPECT_EQ(merged.Count(), 10'100u);
    EXPECT_EQ(merged.PercentileNanos(50), 1'000u) << "fast_first=" << fast_first;
    EXPECT_EQ(merged.PercentileNanos(90), 1'000u) << "fast_first=" << fast_first;
  }
}

TEST(LatencyTest, EmptyRecorderReturnsZero) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.PercentileNanos(50), 0u);
}

TEST(ReportTest, EnvOverrides) {
  setenv("FLODB_TEST_ENV_D", "2.5", 1);
  setenv("FLODB_TEST_ENV_I", "42", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("FLODB_TEST_ENV_D", 1.0), 2.5);
  EXPECT_EQ(EnvInt("FLODB_TEST_ENV_I", 7), 42);
  EXPECT_DOUBLE_EQ(EnvDouble("FLODB_TEST_ENV_MISSING", 1.25), 1.25);
  EXPECT_EQ(EnvInt("FLODB_TEST_ENV_MISSING", 9), 9);
}

// The JSON document `report` writes, read back.
std::string WrittenJson(const Report& report) {
  const std::string path = ::testing::TempDir() + "report_test.json";
  EXPECT_TRUE(report.WriteJson(path));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(ReportTest, OneAddPrintsTheTableLineAndBuffersTheJsonRow) {
  testing::internal::CaptureStdout();
  Report report("fig_test", "title");
  report.Add({{"store", "FloDB"}, {"threads", 2}, {"mops", 1.5}});
  report.Add({{"store", "LevelDB"}, {"threads", 4}, {"mops", 0.25}});
  const std::string table = testing::internal::GetCapturedStdout();
  // Columns come from the first row's names, each at least 12 wide; the
  // header is printed once.
  EXPECT_EQ(table,
            "\n== fig_test: title ==\n"
            "store       threads     mops        \n" +
                std::string(36, '-') +
                "\n"
                "FloDB       2           1.5         \n"
                "LevelDB     4           0.25        \n");
  EXPECT_EQ(WrittenJson(report),
            "{\"figure\": \"fig_test\", \"rows\": [\n"
            "  {\"store\": \"FloDB\", \"threads\": 2, \"mops\": 1.5},\n"
            "  {\"store\": \"LevelDB\", \"threads\": 4, \"mops\": 0.25}\n"
            "]}\n");
}

TEST(ReportTest, JsonStringsAreEscaped) {
  testing::internal::CaptureStdout();
  Report report("fig_test", "title");
  report.Add({{"na\"me", "quote\" backslash\\ newline\n"}});
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(WrittenJson(report),
            "{\"figure\": \"fig_test\", \"rows\": [\n"
            "  {\"na\\\"me\": \"quote\\\" backslash\\\\ newline\\n\"}\n"
            "]}\n");
}

TEST(ReportTest, NumbersPrintAsSixSignificantDigits) {
  testing::internal::CaptureStdout();
  Report report("fig_test", "title");
  report.Add({{"big", 1234567.0}, {"small", 0.1234567}, {"count", uint64_t{42}}});
  const std::string table = testing::internal::GetCapturedStdout();
  EXPECT_NE(table.find("1.23457e+06 0.123457    42"), std::string::npos) << table;
  EXPECT_NE(WrittenJson(report).find("{\"big\": 1.23457e+06, \"small\": 0.123457, \"count\": 42}"),
            std::string::npos);
}

TEST(ReportTest, WriteJsonSkipsAnEmptyPathAndReportsAnUnwritableOne) {
  testing::internal::CaptureStdout();
  Report report("fig_test", "title");
  report.Add({{"threads", 1}});
  EXPECT_TRUE(report.WriteJson(""));
  EXPECT_FALSE(report.WriteJson(::testing::TempDir() + "no-such-dir/out.json"));
  testing::internal::GetCapturedStdout();
}

TEST(DriverTest, RunsWorkloadAndCounts) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  WorkloadSpec spec;
  spec.get_fraction = 0.5;
  spec.put_fraction = 0.5;
  spec.key_space = 10'000;
  spec.value_bytes = 64;

  DriverOptions driver;
  driver.threads = 2;
  driver.seconds = 0.3;
  driver.record_latency = true;

  const DriverResult result = RunWorkload(db.get(), spec, driver);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.ops, result.gets + result.puts + result.deletes + result.scans);
  EXPECT_GT(result.MopsPerSec(), 0.0);
  EXPECT_GT(result.elapsed_seconds, 0.2);
  EXPECT_GT(result.puts, 0u);
  EXPECT_GT(result.gets, 0u);
  EXPECT_GT(result.write_p50, 0u);
}

TEST(DriverTest, BatchPutMixCommitsGroups) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  WorkloadSpec spec;
  spec.batch_put_fraction = 1.0;
  spec.batch_entries = 16;
  spec.key_space = 10'000;
  spec.value_bytes = 32;

  DriverOptions driver;
  driver.threads = 2;
  driver.ops_per_thread = 50;  // burst mode: exactly 100 batch commits

  const DriverResult result = RunWorkload(db.get(), spec, driver);
  EXPECT_EQ(result.batch_commits, 100u);
  EXPECT_EQ(result.puts, 100u * 16u);
  const StoreStats stats = db->GetStats();
  EXPECT_EQ(stats.batch_writes, 100u);
  EXPECT_EQ(stats.batch_entries, 100u * 16u);
  // Group-commit amortization is observable from the stats alone.
  EXPECT_EQ(stats.batch_entries / stats.batch_writes, 16u);
}

TEST(DriverTest, TwoRoleAssignsWriterThread) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());

  WorkloadSpec readers;
  readers.get_fraction = 1.0;
  readers.key_space = 1000;
  WorkloadSpec writer;
  writer.put_fraction = 1.0;
  writer.key_space = 1000;
  writer.value_bytes = 32;

  DriverOptions driver;
  driver.threads = 3;
  driver.seconds = 0.2;
  driver.two_role = true;
  driver.writer_spec = writer;

  const DriverResult result = RunWorkload(db.get(), readers, driver);
  EXPECT_GT(result.puts, 0u) << "thread 0 must write";
  EXPECT_GT(result.gets, 0u) << "other threads must read";
  EXPECT_EQ(result.deletes, 0u);
}

TEST(LoaderTest, SequentialLoadIsReadable) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  ASSERT_TRUE(LoadSequential(db.get(), 1000, 32).ok());
  KeyBuf buf;
  std::string value;
  for (uint64_t i = 0; i < 1000; i += 101) {
    const uint64_t key = SpreadKey(i, 1000);
    ASSERT_TRUE(db->Get(buf.Set(key), &value).ok()) << i;
    EXPECT_EQ(value, ValueForKey(key, 32));
  }
}

TEST(LoaderTest, RandomOrderLoadCoversRequestedCount) {
  MemEnv env;
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.disk.env = &env;
  options.disk.path = "/db";
  std::unique_ptr<FloDB> db;
  ASSERT_TRUE(FloDB::Open(options, &db).ok());
  ASSERT_TRUE(LoadRandomOrder(db.get(), 500, 1000, 32).ok());
  ASSERT_TRUE(db->FlushAll().ok());
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(db->Scan(Slice(), Slice(), 0, &all).ok());
  // The multiplicative permutation may collide on a handful of keys.
  EXPECT_GE(all.size(), 450u);
  EXPECT_LE(all.size(), 500u);
}

}  // namespace
}  // namespace flodb::bench
