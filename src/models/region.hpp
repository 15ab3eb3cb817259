// Region (interval) regressors — paper Sec. II-B.
//
// Two uncalibrated baselines are provided here:
//   * GpIntervalRegressor — Gaussian-process posterior interval, Eq. (4);
//   * QuantilePairRegressor — two pinball-loss models at quantiles alpha/2
//     and 1 - alpha/2, Eq. (5).
// The conformal module wraps these to obtain the finite-sample coverage
// guarantee of Eq. (6).
#pragma once

#include <memory>

#include "core/units.hpp"
#include "models/gp.hpp"
#include "models/interval.hpp"
#include "models/regressor.hpp"

namespace vmincqr::models {

/// Eq. (4): [mu + K_lo * sigma, mu + K_hi * sigma] with K = Phi^{-1} bounds.
class GpIntervalRegressor final : public IntervalRegressor {
 public:
  explicit GpIntervalRegressor(MiscoverageAlpha alpha, GpConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] IntervalPrediction predict_interval(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<IntervalRegressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "GP"; }
  [[nodiscard]] MiscoverageAlpha alpha() const override { return alpha_; }

  [[nodiscard]] const GaussianProcessRegressor& gp() const { return gp_; }

 private:
  MiscoverageAlpha alpha_;
  GpConfig config_;
  GaussianProcessRegressor gp_;
};

/// Quantile-regression interval: lower model at q = alpha/2, upper at
/// q = 1 - alpha/2. Bound crossings (possible with independently trained
/// models) are repaired by elementwise swap.
///
/// fit() trains the two models as the two chunks of one pool grid, so
/// outside a pool they run concurrently and must share no mutable state;
/// every model in models/ owns its state. Inside a pool task they run
/// inline, lower then upper. Either way each model computes the same bits,
/// and when both throw the lower model's exception surfaces.
class QuantilePairRegressor final : public IntervalRegressor {
 public:
  /// The prototypes must already be configured with pinball losses at the
  /// matching quantiles; `make_quantile_pair` in factory.hpp does this.
  /// Throws std::invalid_argument on null prototypes.
  QuantilePairRegressor(MiscoverageAlpha alpha, std::unique_ptr<Regressor> lower,
                        std::unique_ptr<Regressor> upper, std::string label);

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] IntervalPrediction predict_interval(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<IntervalRegressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] MiscoverageAlpha alpha() const override { return alpha_; }

  [[nodiscard]] const Regressor& lower_model() const { return *lower_; }
  [[nodiscard]] const Regressor& upper_model() const { return *upper_; }

 private:
  MiscoverageAlpha alpha_;
  std::unique_ptr<Regressor> lower_;
  std::unique_ptr<Regressor> upper_;
  std::string label_;
};

}  // namespace vmincqr::models
