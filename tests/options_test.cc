// FloDbOptions validation edge cases: FloDB::Open must reject nonsense
// configurations with InvalidArgument instead of crashing or silently
// misbehaving later.

#include "flodb/core/options.h"

#include <gtest/gtest.h>

#include <memory>

#include "flodb/core/flodb.h"
#include "flodb/disk/mem_env.h"

namespace flodb {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  FloDbOptions ValidOptions() {
    FloDbOptions options;
    options.memory_budget_bytes = 1 << 20;
    options.membuffer_fraction = 0.25;
    options.disk.env = &env_;
    options.disk.path = "/db";
    return options;
  }

  Status Open(const FloDbOptions& options) {
    std::unique_ptr<FloDB> db;
    return FloDB::Open(options, &db);
  }

  MemEnv env_;
};

TEST_F(OptionsTest, ValidOptionsOpen) { EXPECT_TRUE(Open(ValidOptions()).ok()); }

TEST_F(OptionsTest, ZeroMemoryBudgetRejected) {
  FloDbOptions options = ValidOptions();
  options.memory_budget_bytes = 0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionZeroRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 0.0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionNegativeRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = -0.5;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionOneRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 1.0;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionAboveOneRejected) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 1.5;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, MembufferFractionJustInsideRangeAccepted) {
  FloDbOptions options = ValidOptions();
  options.membuffer_fraction = 0.01;
  EXPECT_TRUE(Open(options).ok());
  options.membuffer_fraction = 0.99;
  EXPECT_TRUE(Open(options).ok());
}

TEST_F(OptionsTest, PersistenceWithoutEnvRejected) {
  FloDbOptions options = ValidOptions();
  options.disk.env = nullptr;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, PersistenceWithoutPathRejected) {
  FloDbOptions options = ValidOptions();
  options.disk.path.clear();
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, WalRequiresPersistence) {
  FloDbOptions options = ValidOptions();
  options.enable_persistence = false;
  options.enable_wal = true;
  EXPECT_TRUE(Open(options).IsInvalidArgument());
}

TEST_F(OptionsTest, NoPersistenceNeedsNoDiskConfig) {
  FloDbOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.enable_persistence = false;
  EXPECT_TRUE(Open(options).ok());
}

TEST_F(OptionsTest, ZeroBlockCacheBytesDisablesCaching) {
  // 0 is a valid mode (block caching off), not an error.
  FloDbOptions options = ValidOptions();
  options.disk.block_cache_bytes = 0;
  EXPECT_TRUE(Open(options).ok());
}

}  // namespace
}  // namespace flodb
