// Order statistics for benchmark samples. Every percentile carries the sample
// count it was taken over and how many samples lie beyond it, so a reader can
// tell a p99 over 100 samples (one sample beyond) from one over 10^6.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q * n), clamped to [1, n]. Throws std::invalid_argument
/// on an empty sample or q outside (0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Number of samples strictly past the nearest-rank q-percentile: n - rank.
std::size_t samples_beyond(std::size_t n, double q);

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
  std::size_t beyond_p99 = 0;  ///< samples strictly above the p99 rank
};

/// p50 / p99 of `samples` (sorted in place). All zero when empty.
Percentiles summarize(std::vector<double>& samples);

/// p99 of `values` per consecutive window of `window_ns` along `t_ns`
/// (ascending timestamps, one per value), then the median across windows.
/// Windows with fewer than `min_samples` values are skipped; with none
/// left, the p99 of the whole sample. A stall confined to one window moves
/// one window's p99, not the result. Throws std::invalid_argument on an
/// empty sample or a size mismatch.
double median_window_p99(const std::vector<std::int64_t>& t_ns,
                         const std::vector<double>& values, std::int64_t window_ns,
                         std::size_t min_samples);

/// Median (mean of the two middle values for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> samples);

}  // namespace perfbench
