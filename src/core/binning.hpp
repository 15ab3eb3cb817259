// Binning, in both senses this codebase needs it:
//
// 1. ML-assisted Vmin binning (the application of the paper's reference [4]:
//    Lin et al., "ML-assisted Vmin binning with multiple guard bands",
//    ITC'22): assign each chip the lowest supply-voltage bin that its
//    predicted Vmin supports, trading power (lower bins) against field
//    failures (violations). Interval-based binning uses the calibrated upper
//    bound directly — the conformal guarantee transfers: at most ~alpha of
//    chips land in a bin below their true Vmin. Point-based binning needs an
//    explicit guard band.
//
// 2. Feature pre-binning (FeatureBinner) for split search: quantize each
//    feature to <= max_bins codes whose boundaries are candidate split
//    thresholds. The fast kernel tier (linalg::KernelPolicy::kFast) routes
//    GBT / ordered-boost fits through histograms of these codes, O(n + bins)
//    per feature with thresholds limited to the edges. The exact ordered-
//    boost search uses the same codes as each value's rank against the
//    feature's borders (see the invariant below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "linalg/matrix.hpp"

namespace vmincqr::core {

using linalg::Matrix;
using linalg::Vector;

struct BinningConfig {
  /// Candidate supply voltages (volts), strictly ascending. A chip whose
  /// requirement exceeds the top bin is "unbinnable" (scrapped or derated).
  std::vector<double> bin_voltages;
};

struct BinningResult {
  /// Bin index per chip, or -1 for unbinnable chips.
  std::vector<int> bin_of_chip;
  /// Chips per bin (size = bin_voltages.size()).
  std::vector<std::size_t> bin_counts;
  std::size_t n_unbinnable = 0;
  /// Mean allocated supply voltage over binnable chips (power proxy).
  double mean_voltage = 0.0;
  /// Fraction of binnable chips whose TRUE Vmin exceeds their bin voltage
  /// (field failures). Requires truth; 0 when truth unavailable.
  double violation_rate = 0.0;
};

/// Bins chips by a per-chip required voltage (e.g. a calibrated interval
/// upper bound, or prediction + guard band): chip -> lowest bin voltage
/// >= requirement. If `truth` is non-empty it must match the requirement
/// length and is used to compute the violation rate.
/// Throws std::invalid_argument on empty/unsorted bins or length mismatch.
BinningResult bin_chips(const Vector& required_voltage, const Vector& truth,
                        const BinningConfig& config);

/// Convenience: interval-based binning from calibrated upper bounds.
inline BinningResult bin_by_interval(const Vector& upper, const Vector& truth,
                                     const BinningConfig& config) {
  return bin_chips(upper, truth, config);
}

/// Convenience: point-based binning with a uniform guard band (mV, as in
/// screening.hpp).
BinningResult bin_by_point(const Vector& predicted, Millivolt guard_band,
                           const Vector& truth, const BinningConfig& config);

/// Mean supply saved per chip (volts) by scheme A relative to scheme B,
/// counting only chips binnable under both. Positive = A uses less voltage.
double mean_voltage_saving(const BinningResult& a, const BinningResult& b,
                           const BinningConfig& config);

/// Per-feature quantizer for histogram split search.
///
/// fit() learns ascending bin EDGES per feature — midpoints between adjacent
/// distinct values, quantile-thinned to at most max_bins - 1 of them — and
/// bin_of() maps a value to its bin code. The invariant that makes histogram
/// splits equivalent to threshold splits:
///
///   bin_of(f, v) <= b   <=>   v <= edge(f, b)
///
/// so "bins 0..b go left" IS the tree split `x <= edge(f, b)`, and a fitted
/// tree stores ordinary thresholds — prediction never sees the binner.
///
/// Everything is deterministic (pure function of the training matrix), but
/// fit()'s candidate thinning means histogram splits can differ from the
/// exact presorted scan: histogram fit paths are fast-tier by construction.
/// With explicit edges (import_edges) the invariant alone makes a code an
/// exact stand-in for the threshold test.
class FeatureBinner {
 public:
  /// Learns edges from every column of x. max_bins >= 2 (throws otherwise);
  /// a constant feature gets zero edges (single bin, never splittable).
  void fit(const Matrix& x, std::size_t max_bins = kDefaultMaxBins);

  /// Adopts explicit per-feature ascending edge lists (e.g. ordered-boost
  /// borders). Throws std::invalid_argument on unsorted or non-finite edges
  /// or a feature with > 65535 edges (codes are uint16).
  void import_edges(std::vector<std::vector<double>> edges);

  [[nodiscard]] bool fitted() const noexcept { return !edges_.empty(); }
  [[nodiscard]] std::size_t n_features() const noexcept {
    return edges_.size();
  }
  /// Bins for feature f (edge count + 1).
  [[nodiscard]] std::size_t n_bins(std::size_t feature) const {
    return edges_[feature].size() + 1;
  }
  [[nodiscard]] const std::vector<double>& edges(std::size_t feature) const {
    return edges_[feature];
  }
  /// The split threshold bin boundary b stands for (b < n_bins(f) - 1).
  [[nodiscard]] double edge(std::size_t feature, std::size_t b) const {
    return edges_[feature][b];
  }

  /// Bin code of one value: the number of edges < value.
  [[nodiscard]] std::uint16_t bin_of(std::size_t feature, double value) const;

  /// Row-major (rows x n_features) code matrix for x. Throws
  /// std::invalid_argument when x.cols() != n_features().
  [[nodiscard]] std::vector<std::uint16_t> bin(const Matrix& x) const;

  static constexpr std::size_t kDefaultMaxBins = 64;

 private:
  std::vector<std::vector<double>> edges_;  ///< ascending, per feature
};

}  // namespace vmincqr::core
