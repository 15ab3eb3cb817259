// Normalized (locally-weighted) split conformal prediction — an extension
// beyond the paper, included as an alternative route to input-adaptive
// interval widths: scores are residuals scaled by a learned per-sample
// difficulty estimate sigma_hat(x), so the calibrated interval is
// [mu(x) - q_hat sigma_hat(x), mu(x) + q_hat sigma_hat(x)].
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

struct NormalizedConfig {
  core::CalibrationSplit split;
  double sigma_floor = 1e-6;  ///< lower bound on sigma_hat (volts)
};

class NormalizedConformalRegressor final : public IntervalRegressor {
 public:
  /// `mean_model` predicts y; `sigma_model` is trained on |residuals| of the
  /// mean model over the proper-training set. Throws std::invalid_argument
  /// on null models.
  NormalizedConformalRegressor(MiscoverageAlpha alpha,
                               std::unique_ptr<Regressor> mean_model,
                               std::unique_ptr<Regressor> sigma_model,
                               NormalizedConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] IntervalPrediction predict_interval(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<IntervalRegressor> clone_config() const override;
  [[nodiscard]] std::string name() const override {
    return "Normalized CP " + mean_model_->name();
  }
  [[nodiscard]] MiscoverageAlpha alpha() const override { return alpha_; }

  [[nodiscard]] double q_hat() const;

 private:
  [[nodiscard]] Vector predict_sigma(const Matrix& x) const;

  MiscoverageAlpha alpha_;
  std::unique_ptr<Regressor> mean_model_;
  std::unique_ptr<Regressor> sigma_model_;
  NormalizedConfig config_;
  double q_hat_ = 0.0;
  bool calibrated_ = false;
};

}  // namespace vmincqr::conformal
