#include "flodb/bench_util/latency.h"

#include <algorithm>

namespace flodb::bench {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  // Each side's samples are a uniform sample of its stream, so each one
  // stands for count / size stream entries. Draw up to capacity_ samples
  // without replacement, picking a side in proportion to the stream
  // entries its undrawn samples still stand for.
  std::vector<uint64_t> pools[2] = {std::move(samples_), other.samples_};
  const uint64_t counts[2] = {count_, other.count_};
  double per_sample[2];
  for (int side = 0; side < 2; ++side) {
    per_sample[side] =
        pools[side].empty() ? 0.0 : static_cast<double>(counts[side]) / pools[side].size();
  }
  samples_.clear();
  samples_.reserve(capacity_);
  while (samples_.size() < capacity_ && !(pools[0].empty() && pools[1].empty())) {
    const double weight0 = per_sample[0] * pools[0].size();
    const double weight1 = per_sample[1] * pools[1].size();
    std::vector<uint64_t>& pool =
        rng_.NextDouble() * (weight0 + weight1) < weight0 ? pools[0] : pools[1];
    const size_t i = rng_.Uniform(pool.size());
    samples_.push_back(pool[i]);
    pool[i] = pool.back();
    pool.pop_back();
  }
  count_ += other.count_;
}

uint64_t LatencyRecorder::PercentileNanos(double p) {
  if (samples_.empty()) {
    return 0;
  }
  std::sort(samples_.begin(), samples_.end());
  double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  if (rank < 0) {
    rank = 0;
  }
  return samples_[static_cast<size_t>(rank)];
}

}  // namespace flodb::bench
