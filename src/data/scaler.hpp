// Column-wise z-score standardization. Fit on training data, apply to any
// matrix with the same column count (never fit on test data).
#pragma once

#include "linalg/matrix.hpp"

namespace vmincqr::data {

using linalg::Matrix;
using linalg::Vector;

/// The fitted state of a StandardScaler as a plain value — the unit the
/// artifact codec serializes. Restoring these into a fresh scaler reproduces
/// transform() bit-exactly.
struct ScalerParams {
  Vector means;
  Vector scales;
};

/// The fitted state of a LabelScaler.
struct LabelScalerParams {
  double mean = 0.0;
  double scale = 1.0;
};

/// Standardizes each column to zero mean / unit variance. Constant columns
/// are centred but left unscaled (scale 1), so they map to exactly zero.
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation.
  /// Throws std::invalid_argument on an empty matrix, and a "precondition"
  /// core::contract_violation (in every build type, leaving the scaler as it
  /// was) when a mean or scale is not finite.
  void fit(const Matrix& x);

  /// Applies the learned transform. Throws std::logic_error if not fitted,
  /// std::invalid_argument on column-count mismatch.
  [[nodiscard]] Matrix transform(const Matrix& x) const;

  /// fit + transform in one step.
  Matrix fit_transform(const Matrix& x);

  /// Inverse transform (for diagnostics).
  [[nodiscard]] Matrix inverse_transform(const Matrix& x) const;

  /// Copies out the fitted moments. Throws std::logic_error if not fitted.
  [[nodiscard]] ScalerParams export_params() const;

  /// Adopts previously exported moments and marks the scaler fitted.
  /// Throws std::invalid_argument on mismatched sizes or a zero scale.
  void import_params(ScalerParams params);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] const Vector& means() const noexcept { return means_; }
  [[nodiscard]] const Vector& scales() const noexcept { return scales_; }

 private:
  Vector means_;
  Vector scales_;
  bool fitted_ = false;
};

/// Scalar standardizer for the label vector; remembers mean/scale so model
/// outputs can be mapped back to volts.
class LabelScaler {
 public:
  /// Throws as StandardScaler::fit does: on an empty vector, and on a mean
  /// or scale that is not finite.
  void fit(const Vector& y);
  [[nodiscard]] Vector transform(const Vector& y) const;
  [[nodiscard]] Vector inverse_transform(const Vector& y) const;
  [[nodiscard]] double inverse_transform(double y) const;
  /// Scale factor alone (for mapping residual widths back to volts).
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// Copies out the fitted moments. Throws std::logic_error if not fitted.
  [[nodiscard]] LabelScalerParams export_params() const;

  /// Adopts previously exported moments and marks the scaler fitted.
  /// Throws std::invalid_argument on a non-finite mean or non-positive scale.
  void import_params(LabelScalerParams params);

 private:
  double mean_ = 0.0;
  double scale_ = 1.0;
  bool fitted_ = false;
};

}  // namespace vmincqr::data
