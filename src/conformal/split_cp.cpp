#include "conformal/split_cp.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "conformal/scores.hpp"
#include "data/split.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::conformal {

SplitConformalRegressor::SplitConformalRegressor(
    MiscoverageAlpha alpha, std::unique_ptr<Regressor> model,
    SplitConfig config)
    : alpha_(alpha), model_(std::move(model)), config_(config) {
  if (!model_) {
    throw std::invalid_argument("SplitConformalRegressor: null model");
  }
  if (!config_.split.valid()) {
    throw std::invalid_argument(
        "SplitConformalRegressor: train_fraction outside (0, 1)");
  }
}

void SplitConformalRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= 3,
                  "SplitConformalRegressor::fit: need at least 3 samples");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "SplitConformalRegressor::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  const data::RowSplit split = data::split_rows(
      x, y, config_.split.train_fraction, config_.split.seed);
  fit_with_split(split.x_train, split.y_train, split.x_calib, split.y_calib);
}

void SplitConformalRegressor::fit_with_split(const Matrix& x_train,
                                             const Vector& y_train,
                                             const Matrix& x_calib,
                                             const Vector& y_calib) {
  VMINCQR_REQUIRE(x_calib.rows() > 0,
                  "SplitConformalRegressor: empty calibration set");
  VMINCQR_CHECK_SHAPE(x_calib.rows() == y_calib.size(),
                      "SplitConformalRegressor: calibration shape mismatch");
  VMINCQR_CHECK_FINITE(y_calib, "calibrate: calibration labels");
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict_interval would read.
  calibrated_ = false;
  model_->fit(x_train, y_train);
  const Vector y_hat = model_->predict(x_calib);
  const auto scores = absolute_residual_scores(y_calib, y_hat);
  q_hat_ = stats::conformal_quantile(scores, alpha_);
  // +Inf is a legitimate conservative result (calibration set too small for
  // the requested alpha -> infinite band); only NaN indicates a defect.
  VMINCQR_ENSURE(!std::isnan(q_hat_), "calibrate: NaN q_hat");
  calibrated_ = true;
}

IntervalPrediction SplitConformalRegressor::predict_interval(
    const Matrix& x) const {
  if (!calibrated_) {
    throw std::logic_error("SplitConformalRegressor: not calibrated");
  }
  const Vector centre = model_->predict(x);
  IntervalPrediction out;
  out.lower.resize(centre.size());
  out.upper.resize(centre.size());
  for (std::size_t i = 0; i < centre.size(); ++i) {
    out.lower[i] = centre[i] - q_hat_;
    out.upper[i] = centre[i] + q_hat_;
  }
  return out;
}

Vector SplitConformalRegressor::predict_point(const Matrix& x) const {
  if (!calibrated_) {
    throw std::logic_error("SplitConformalRegressor: not calibrated");
  }
  return model_->predict(x);
}

std::unique_ptr<IntervalRegressor> SplitConformalRegressor::clone_config()
    const {
  return std::make_unique<SplitConformalRegressor>(
      alpha_, model_->clone_config(), config_);
}

double SplitConformalRegressor::q_hat() const {
  if (!calibrated_) {
    throw std::logic_error("SplitConformalRegressor: not calibrated");
  }
  return q_hat_;
}

}  // namespace vmincqr::conformal
