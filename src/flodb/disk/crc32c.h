// CRC32C (Castagnoli), the checksum of SSTable blocks, WAL records and
// MANIFEST snapshots. Extend picks its implementation once, at run time:
// the SSE4.2 CRC32 instruction on x86-64 CPUs that have it, a
// byte-at-a-time table loop everywhere else. Both compute the same
// values, so the on-disk format does not depend on the host.

#ifndef FLODB_DISK_CRC32C_H_
#define FLODB_DISK_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace flodb::crc32c {

// CRC of data[0, n); `init_crc` chains partial computations (pass the
// previous Value result to extend).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// Test oracle: the portable table loop, which Extend falls back to where
// the CPU has no CRC32C instruction. Same contract as Extend.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Stored CRCs are masked (rotated + offset) so that computing the CRC of a
// string that embeds its own CRC is not degenerate (same scheme LevelDB
// uses).
inline constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + kMaskDelta; }

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace flodb::crc32c

#endif  // FLODB_DISK_CRC32C_H_
