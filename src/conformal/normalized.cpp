#include "conformal/normalized.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "conformal/scores.hpp"
#include "data/split.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::conformal {

NormalizedConformalRegressor::NormalizedConformalRegressor(
    MiscoverageAlpha alpha, std::unique_ptr<Regressor> mean_model,
    std::unique_ptr<Regressor> sigma_model, NormalizedConfig config)
    : alpha_(alpha),
      mean_model_(std::move(mean_model)),
      sigma_model_(std::move(sigma_model)),
      config_(config) {
  if (!mean_model_ || !sigma_model_) {
    throw std::invalid_argument("NormalizedConformalRegressor: null model");
  }
}

void NormalizedConformalRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= 3,
                  "NormalizedConformalRegressor::fit: need at least 3 samples");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "NormalizedConformalRegressor::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  const data::RowSplit split = data::split_rows(
      x, y, config_.split.train_fraction, config_.split.seed);
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict_interval would read.
  calibrated_ = false;
  mean_model_->fit(split.x_train, split.y_train);

  // Difficulty model: absolute residuals of the mean model on its own
  // training data (standard locally-weighted CP recipe).
  const Vector mu_train = mean_model_->predict(split.x_train);
  Vector abs_res(split.y_train.size());
  for (std::size_t i = 0; i < abs_res.size(); ++i) {
    abs_res[i] = std::abs(split.y_train[i] - mu_train[i]);
  }
  sigma_model_->fit(split.x_train, abs_res);

  const Vector mu = mean_model_->predict(split.x_calib);
  const Vector sigma = predict_sigma(split.x_calib);
  std::vector<double> scores(split.y_calib.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = normalized_residual_score(split.y_calib[i], mu[i], sigma[i]);
  }
  q_hat_ = stats::conformal_quantile(scores, alpha_);
  calibrated_ = true;
}

Vector NormalizedConformalRegressor::predict_sigma(const Matrix& x) const {
  Vector sigma = sigma_model_->predict(x);
  for (auto& s : sigma) s = std::max(s, config_.sigma_floor);
  VMINCQR_ENSURE(core::all_finite(sigma),
                 "predict_sigma: non-finite difficulty estimate");
  return sigma;
}

IntervalPrediction NormalizedConformalRegressor::predict_interval(
    const Matrix& x) const {
  if (!calibrated_) {
    throw std::logic_error("NormalizedConformalRegressor: not calibrated");
  }
  const Vector mu = mean_model_->predict(x);
  const Vector sigma = predict_sigma(x);
  IntervalPrediction out;
  out.lower.resize(mu.size());
  out.upper.resize(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    out.lower[i] = mu[i] - q_hat_ * sigma[i];
    out.upper[i] = mu[i] + q_hat_ * sigma[i];
  }
  return out;
}

std::unique_ptr<IntervalRegressor> NormalizedConformalRegressor::clone_config()
    const {
  return std::make_unique<NormalizedConformalRegressor>(
      alpha_, mean_model_->clone_config(), sigma_model_->clone_config(),
      config_);
}

double NormalizedConformalRegressor::q_hat() const {
  if (!calibrated_) {
    throw std::logic_error("NormalizedConformalRegressor: not calibrated");
  }
  return q_hat_;
}

}  // namespace vmincqr::conformal
