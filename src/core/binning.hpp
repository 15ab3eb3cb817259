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
// 2. Feature pre-binning (FeatureBinner) for split search: rank each value
//    against its feature's candidate split thresholds once per fit, so the
//    ordered-boost level search tests a code instead of the value (see the
//    invariant below).
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

/// Per-feature ranks of values against explicit split thresholds.
///
/// import_edges() adopts ascending bin EDGES per feature (ordered-boost
/// borders), and bin_of() maps a value to its bin code. The invariant that
/// makes a code an exact stand-in for a threshold test:
///
///   bin_of(f, v) <= b   <=>   v <= edges(f)[b]
///
/// so "bins 0..b go left" IS the tree split `x <= edges(f)[b]`, and a fitted
/// tree stores ordinary thresholds — prediction never sees the binner.
class FeatureBinner {
 public:
  /// Adopts explicit per-feature ascending edge lists (e.g. ordered-boost
  /// borders); a feature with no edges is a single bin. Throws
  /// std::invalid_argument on unsorted or non-finite edges or a feature
  /// with > 65535 edges (codes are uint16).
  void import_edges(std::vector<std::vector<double>> edges);

  [[nodiscard]] const std::vector<double>& edges(std::size_t feature) const {
    return edges_[feature];
  }

  /// Bin code of one value: the number of edges < value.
  [[nodiscard]] std::uint16_t bin_of(std::size_t feature, double value) const;

  /// Row-major (rows x features) code matrix for x. Throws
  /// std::invalid_argument when x.cols() differs from the feature count.
  [[nodiscard]] std::vector<std::uint16_t> bin(const Matrix& x) const;

 private:
  std::vector<std::vector<double>> edges_;  ///< ascending, per feature
};

}  // namespace vmincqr::core
