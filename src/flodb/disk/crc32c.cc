#include "flodb/disk/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define FLODB_CRC32C_SSE42 1
#endif

namespace flodb::crc32c {

namespace {

// CRC32C polynomial, reversed bit order.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#ifdef FLODB_CRC32C_SSE42
// The SSE4.2 CRC32 instruction computes the same Castagnoli CRC, 8 bytes
// per step. Compiled for SSE4.2 without a global -msse4.2, and only ever
// called once the CPU has reported the feature.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef FLODB_CRC32C_SSE42
  // Safe even if the first CRC runs during static initialisation.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return ExtendSse42;
  }
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace flodb::crc32c
