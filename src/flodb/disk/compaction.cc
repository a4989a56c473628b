#include "flodb/disk/compaction.h"

#include <algorithm>
#include <cassert>

namespace flodb {

CompactionPicker::CompactionPicker(const CompactionConfig& config)
    : config_(config), cursor_(static_cast<size_t>(config.num_levels)) {}

uint64_t CompactionPicker::MaxBytesForLevel(int level) const {
  assert(level >= 1);
  uint64_t max_bytes = config_.l1_max_bytes;
  for (int l = 1; l < level; ++l) {
    max_bytes *= static_cast<uint64_t>(config_.level_size_multiplier);
  }
  return max_bytes;
}

double CompactionPicker::LevelScore(const Version& v, int level) const {
  if (level >= config_.num_levels - 1) {
    return 0.0;  // bottom level has nowhere to compact into
  }
  if (level == 0) {
    return static_cast<double>(v.LevelFiles(0).size()) /
           static_cast<double>(config_.l0_compaction_trigger);
  }
  return static_cast<double>(v.LevelBytes(level)) / static_cast<double>(MaxBytesForLevel(level));
}

bool CompactionPicker::NeedsCompaction(const Version& v) const {
  for (int level = 0; level < config_.num_levels - 1; ++level) {
    if (LevelScore(v, level) >= 1.0) {
      return true;
    }
  }
  return false;
}

bool CompactionPicker::Pick(const Version& v, const std::vector<bool>& level_busy,
                            CompactionJob* job) {
  // Highest score wins: the level furthest over target shrinks first, so
  // sustained churn cannot starve a deep level while L0 trickles. Ties
  // (and the common case of one over-target level) fall out naturally.
  int best_level = -1;
  double best_score = 0.0;
  for (int level = 0; level < config_.num_levels - 1; ++level) {
    if (level_busy[level] || level_busy[level + 1]) {
      continue;  // input or output level already owned by a running job
    }
    const double score = LevelScore(v, level);
    if (score >= 1.0 && score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  if (best_level < 0) {
    return false;
  }

  if (best_level == 0) {
    // L0 files overlap, so every L0 file joins the job (a partial pick
    // could write an older version of a key below a newer one).
    job->level = 0;
    job->inputs_lo = v.LevelFiles(0);
    std::string smallest, largest;
    for (const FileMetaData& f : job->inputs_lo) {
      if (smallest.empty() || Slice(f.smallest).compare(Slice(smallest)) < 0) {
        smallest = f.smallest;
      }
      if (largest.empty() || Slice(f.largest).compare(Slice(largest)) > 0) {
        largest = f.largest;
      }
    }
    job->inputs_hi = v.OverlappingFiles(1, Slice(smallest), Slice(largest));
    job->drop_tombstones = v.IsBottommostForRange(1, Slice(smallest), Slice(largest));
    return true;
  }

  const auto& files = v.LevelFiles(best_level);
  assert(!files.empty());
  // Round-robin across the key space (LevelDB's compact_pointer): resume
  // past the last compacted range, wrapping to the start.
  const FileMetaData* pick = nullptr;
  for (const FileMetaData& f : files) {
    if (cursor_[best_level].empty() ||
        Slice(f.smallest).compare(Slice(cursor_[best_level])) > 0) {
      pick = &f;
      break;
    }
  }
  if (pick == nullptr) {
    pick = &files[0];  // wrapped around
  }
  cursor_[best_level] = pick->largest;
  job->level = best_level;
  job->inputs_lo = {*pick};
  job->inputs_hi =
      v.OverlappingFiles(best_level + 1, Slice(pick->smallest), Slice(pick->largest));
  job->drop_tombstones =
      v.IsBottommostForRange(best_level + 1, Slice(pick->smallest), Slice(pick->largest));
  return true;
}

int BloomBitsForLevel(int level) {
  if (level <= 1) {
    return 12;
  }
  return level <= 3 ? 10 : 6;
}

}  // namespace flodb
