// Compaction policy for the leveled disk component, split out from the
// scheduler so picking is unit-testable without threads or table files.
//
// Two pieces:
//  * CompactionPicker — score-based level selection (RocksDB style): each
//    level scores size-over-target (L0 scores file-count-over-trigger)
//    and the eligible level with the highest score >= 1.0 compacts into
//    the level below, round-robining across its key space;
//  * BloomBitsForLevel — per-level filter sizing (hot upper levels get
//    more bits per key, cold bottom levels fewer — FlashMap's tuned
//    per-level filters).

#ifndef FLODB_DISK_COMPACTION_H_
#define FLODB_DISK_COMPACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "flodb/disk/version.h"

namespace flodb {

// Shape of the level hierarchy; mirrors the matching DiskOptions fields.
struct CompactionConfig {
  int num_levels = 7;
  int l0_compaction_trigger = 4;   // L0 file count worth score 1.0
  uint64_t l1_max_bytes = 8ull << 20;
  int level_size_multiplier = 10;  // target(L) = l1_max_bytes * mult^(L-1)
};

// One unit of compaction work: merge `inputs_lo` (files at `level`) with
// `inputs_hi` (overlapping files at `level + 1`) into `level + 1`.
struct CompactionJob {
  int level = -1;
  std::vector<FileMetaData> inputs_lo;
  std::vector<FileMetaData> inputs_hi;
  bool drop_tombstones = false;  // true when the output is bottommost for the range
};

class CompactionPicker {
 public:
  explicit CompactionPicker(const CompactionConfig& config);

  uint64_t MaxBytesForLevel(int level) const;

  // L0: files / l0_compaction_trigger. L1+: bytes / MaxBytesForLevel.
  // The bottom level never compacts further and always scores 0.
  double LevelScore(const Version& v, int level) const;

  // True if any level scores >= 1.0.
  bool NeedsCompaction(const Version& v) const;

  // Fills *job from the eligible level with the highest score >= 1.0;
  // `level_busy` masks levels with a running compaction (a job occupies
  // both its input and output level). Not thread-safe: the caller
  // serializes (the disk component holds its scheduling mutex, which
  // also protects the round-robin cursors mutated here).
  bool Pick(const Version& v, const std::vector<bool>& level_busy, CompactionJob* job);

 private:
  const CompactionConfig config_;
  std::vector<std::string> cursor_;  // round-robin largest-key per level
};

// Bloom bits per key for a level: 12 for L0/L1 (every point read probes
// them), 10 for L2/L3, 6 for deeper cold levels — their files are large,
// rarely probed, and filter bytes there crowd the table cache.
int BloomBitsForLevel(int level);

}  // namespace flodb

#endif  // FLODB_DISK_COMPACTION_H_
