#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"

namespace vmincqr::stats {

double quantile_linear(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile_linear: empty");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile_linear: q outside [0, 1]");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  if (lo == hi) return values[lo];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double quantile_higher(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile_higher: empty");
  if (q <= 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile_higher: q outside (0, 1]");
  }
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));  // 1-indexed
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

double conformal_quantile(std::vector<double> scores,
                          core::MiscoverageAlpha alpha) {
  if (scores.empty()) {
    throw std::invalid_argument("conformal_quantile: empty calibration set");
  }
  // Always on: std::sort has no valid order with a NaN in it, so q-hat would
  // depend on where the NaN sat. An O(m) scan next to the O(m log m) sort.
  VMINCQR_REQUIRE(core::all_finite(scores),
                  "conformal_quantile: non-finite conformity score");
  const auto m = scores.size();
  const double target =
      std::ceil((static_cast<double>(m) + 1.0) * (1.0 - alpha));
  if (target > static_cast<double>(m)) {
    // Not enough calibration data for a finite guarantee at this alpha.
    return std::numeric_limits<double>::infinity();
  }
  std::sort(scores.begin(), scores.end());
  auto rank = static_cast<std::size_t>(target);  // 1-indexed
  rank = std::clamp<std::size_t>(rank, 1, m);
  return scores[rank - 1];
}

std::size_t min_calibration_size(core::MiscoverageAlpha alpha) {
  // ceil((M+1)(1-alpha)) <= M  <=>  M >= ceil(1/alpha) - 1 ... search directly
  // to avoid floating-point edge cases.
  for (std::size_t m = 1; m < 1u << 26; ++m) {
    const double target =
        std::ceil((static_cast<double>(m) + 1.0) * (1.0 - alpha));
    if (target <= static_cast<double>(m)) return m;
  }
  return std::numeric_limits<std::size_t>::max();
}

}  // namespace vmincqr::stats
