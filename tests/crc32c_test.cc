#include "flodb/disk/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>

namespace flodb {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C check value: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);

  // 32 zero bytes -> 0x8A9136AA (iSCSI test vector).
  char zeros[32] = {};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8A9136AAu);

  // 32 0xFF bytes -> 0x62A8AB43.
  char ffs[32];
  memset(ffs, 0xff, sizeof(ffs));
  EXPECT_EQ(crc32c::Value(ffs, sizeof(ffs)), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesLikeConcatenation) {
  const std::string a = "hello ";
  const std::string b = "world";
  const uint32_t whole = crc32c::Value((a + b).data(), a.size() + b.size());
  const uint32_t chained = crc32c::Extend(crc32c::Value(a.data(), a.size()), b.data(), b.size());
  EXPECT_EQ(whole, chained);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
  EXPECT_NE(crc32c::Value("ab", 2), crc32c::Value("ba", 2));
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
  }
}

TEST(Crc32cTest, MaskChangesValue) {
  const uint32_t crc = crc32c::Value("data", 4);
  EXPECT_NE(crc32c::Mask(crc), crc);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

// Extend may run a hardware path; the portable table loop is the oracle
// it must agree with on every length, alignment and chaining.
std::string RandomBytes(std::mt19937_64* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>((*rng)() & 0xff);
  }
  return s;
}

TEST(Crc32cTest, MatchesPortableOverRandomLengths) {
  std::mt19937_64 rng(301);
  for (int i = 0; i < 200; ++i) {
    const size_t n = rng() % ((64u << 10) + 1);
    const std::string data = RandomBytes(&rng, n);
    const auto init = static_cast<uint32_t>(rng());
    SCOPED_TRACE("length " + std::to_string(n));
    EXPECT_EQ(crc32c::Extend(init, data.data(), n), crc32c::ExtendPortable(init, data.data(), n));
    EXPECT_EQ(crc32c::Value(data.data(), n), crc32c::ExtendPortable(0, data.data(), n));
  }
}

TEST(Crc32cTest, MatchesPortableAtEveryStartOffset) {
  std::mt19937_64 rng(302);
  const std::string data = RandomBytes(&rng, 4096 + 8);
  const size_t lengths[] = {0, 1, 7, 8, 9, 63, 4093, 4096};
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " + std::to_string(n));
      EXPECT_EQ(crc32c::Value(data.data() + offset, n),
                crc32c::ExtendPortable(0, data.data() + offset, n));
    }
  }
}

TEST(Crc32cTest, ChainedSplitsMatchPortable) {
  std::mt19937_64 rng(303);
  for (int i = 0; i < 200; ++i) {
    const size_t n = rng() % 8192;
    const std::string data = RandomBytes(&rng, n);
    const uint32_t whole = crc32c::ExtendPortable(0, data.data(), n);
    // Two- and three-way splits at random cut points.
    size_t a = rng() % (n + 1);
    size_t b = rng() % (n + 1);
    if (a > b) {
      std::swap(a, b);
    }
    SCOPED_TRACE("cuts " + std::to_string(a) + " " + std::to_string(b) + " " + std::to_string(n));
    EXPECT_EQ(crc32c::Extend(crc32c::Value(data.data(), a), data.data() + a, n - a), whole);
    const uint32_t first = crc32c::Value(data.data(), a);
    const uint32_t second = crc32c::Extend(first, data.data() + a, b - a);
    EXPECT_EQ(crc32c::Extend(second, data.data() + b, n - b), whole);
  }
}

}  // namespace
}  // namespace flodb
