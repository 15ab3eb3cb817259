// Split Conformal Prediction (paper Sec. III-B).
//
// Wraps ANY point regressor: the training set is split into a proper
// training part and a calibration part; the point model is fitted on the
// former, and the ceil((M+1)(1-alpha))/M-th quantile q_hat of the absolute
// calibration residuals (Eq. 7) widens every prediction into
// [y_hat - q_hat, y_hat + q_hat] (Eq. 8). The interval width is constant
// across inputs — the limitation CQR removes.
#pragma once

#include <memory>

#include "core/split_spec.hpp"
#include "core/units.hpp"
#include "models/interval.hpp"
#include "models/regressor.hpp"

namespace vmincqr::conformal {

using core::MiscoverageAlpha;
using models::IntervalPrediction;
using models::IntervalRegressor;
using models::Matrix;
using models::Regressor;
using models::Vector;

struct SplitConfig {
  /// Train/calibration split (the paper's 75/25, Sec. IV-B); shared with
  /// core::PipelineConfig through core::CalibrationSplit.
  core::CalibrationSplit split;
};

class SplitConformalRegressor final : public IntervalRegressor {
 public:
  /// Takes ownership of an unfitted point-regressor prototype.
  /// Throws std::invalid_argument on a null model.
  SplitConformalRegressor(MiscoverageAlpha alpha,
                          std::unique_ptr<Regressor> model,
                          SplitConfig config = {});

  /// Splits (x, y) internally, fits, and calibrates.
  /// Throws std::invalid_argument if fewer than 3 samples.
  void fit(const Matrix& x, const Vector& y) override;

  /// Calibrates on an explicit, already-disjoint split (no internal
  /// randomization). Used when the caller manages the split.
  void fit_with_split(const Matrix& x_train, const Vector& y_train,
                      const Matrix& x_calib, const Vector& y_calib);

  [[nodiscard]] IntervalPrediction predict_interval(const Matrix& x) const override;

  /// The underlying point prediction (centre of the interval).
  [[nodiscard]] Vector predict_point(const Matrix& x) const;

  [[nodiscard]] std::unique_ptr<IntervalRegressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "CP " + model_->name(); }
  [[nodiscard]] MiscoverageAlpha alpha() const override { return alpha_; }

  /// Calibrated half-width q_hat (volts); +inf when the calibration set was
  /// too small for the requested coverage.
  [[nodiscard]] double q_hat() const;

 private:
  MiscoverageAlpha alpha_;
  std::unique_ptr<Regressor> model_;
  SplitConfig config_;
  double q_hat_ = 0.0;
  bool calibrated_ = false;
};

}  // namespace vmincqr::conformal
