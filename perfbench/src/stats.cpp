#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of an empty sample");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile level must lie in (0, 1]");
  }
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

Percentiles summarize(std::vector<double>& samples) {
  Percentiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = percentile_sorted(samples, 0.50);
  out.p99 = percentile_sorted(samples, 0.99);
  out.beyond_p99 = samples_beyond(samples.size(), 0.99);
  return out;
}

double median_window_p99(const std::vector<std::int64_t>& t_ns,
                         const std::vector<double>& values, std::int64_t window_ns,
                         std::size_t min_samples) {
  if (values.empty() || t_ns.size() != values.size() || window_ns <= 0) {
    throw std::invalid_argument("median_window_p99: bad sample");
  }
  std::vector<double> window_p99;
  std::vector<double> window;
  std::int64_t window_end = t_ns.front() + window_ns;
  const auto flush = [&] {
    if (!window.empty() && window.size() >= min_samples) {
      std::sort(window.begin(), window.end());
      window_p99.push_back(percentile_sorted(window, 0.99));
    }
    window.clear();
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    while (t_ns[i] >= window_end) {
      flush();
      window_end += window_ns;
    }
    window.push_back(values[i]);
  }
  flush();
  if (window_p99.empty()) {
    std::vector<double> all = values;
    std::sort(all.begin(), all.end());
    return percentile_sorted(all, 0.99);
  }
  return median(std::move(window_p99));
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
