#include "conformal/predictive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "data/split.hpp"

namespace vmincqr::conformal {

ConformalPredictiveDistribution::ConformalPredictiveDistribution(
    std::unique_ptr<Regressor> model, PredictiveConfig config)
    : model_(std::move(model)), config_(config) {
  if (!model_) {
    throw std::invalid_argument("ConformalPredictiveDistribution: null model");
  }
  if (!config_.split.valid()) {
    throw std::invalid_argument(
        "ConformalPredictiveDistribution: train_fraction outside (0, 1)");
  }
}

void ConformalPredictiveDistribution::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= 3,
                  "ConformalPredictiveDistribution::fit: need at least 3 "
                  "samples");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "ConformalPredictiveDistribution::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  const data::RowSplit split = data::split_rows(
      x, y, config_.split.train_fraction, config_.split.seed);
  fit_with_split(split.x_train, split.y_train, split.x_calib, split.y_calib);
}

void ConformalPredictiveDistribution::fit_with_split(const Matrix& x_train,
                                                     const Vector& y_train,
                                                     const Matrix& x_calib,
                                                     const Vector& y_calib) {
  VMINCQR_REQUIRE(x_calib.rows() > 0,
                  "ConformalPredictiveDistribution: empty calibration set");
  VMINCQR_CHECK_SHAPE(x_calib.rows() == y_calib.size(),
                      "ConformalPredictiveDistribution: calibration shape "
                      "mismatch");
  VMINCQR_CHECK_FINITE(y_calib, "calibrate: calibration labels");
  model_->fit(x_train, y_train);
  const Vector mu = model_->predict(x_calib);
  residuals_.resize(y_calib.size());
  for (std::size_t i = 0; i < y_calib.size(); ++i) {
    residuals_[i] = y_calib[i] - mu[i];
  }
  std::sort(residuals_.begin(), residuals_.end());
  calibrated_ = true;
}

double ConformalPredictiveDistribution::predict_one(const Vector& x_row) const {
  Matrix x(1, x_row.size());
  x.set_row(0, x_row);
  return model_->predict(x)[0];
}

double ConformalPredictiveDistribution::cdf(const Vector& x_row,
                                            double y) const {
  if (!calibrated_) {
    throw std::logic_error("ConformalPredictiveDistribution: not calibrated");
  }
  const double mu = predict_one(x_row);
  const double score = y - mu;
  // rank = #{ r_i <= score }
  const auto rank = static_cast<double>(
      std::upper_bound(residuals_.begin(), residuals_.end(), score) -
      residuals_.begin());
  const auto m = static_cast<double>(residuals_.size());
  // Clamp into (0, 1): finite calibration can never certify certainty.
  const double q = (rank + 0.5) / (m + 1.0);
  return std::clamp(q, 1.0 / (m + 1.0), m / (m + 1.0));
}

double ConformalPredictiveDistribution::quantile(
    const Vector& x_row, core::QuantileLevel beta) const {
  if (!calibrated_) {
    throw std::logic_error("ConformalPredictiveDistribution: not calibrated");
  }
  const double mu = predict_one(x_row);
  const auto m = static_cast<double>(residuals_.size());
  auto rank = static_cast<std::size_t>(std::ceil(beta * (m + 1.0)));
  rank = std::clamp<std::size_t>(rank, 1, residuals_.size());
  return mu + residuals_[rank - 1];
}

double ConformalPredictiveDistribution::exceedance_probability(
    const Vector& x_row, core::Volt threshold) const {
  return 1.0 - cdf(x_row, threshold);
}

Vector ConformalPredictiveDistribution::exceedance_probabilities(
    const Matrix& x, core::Volt threshold) const {
  Vector out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = exceedance_probability(x.row(i), threshold);
  }
  return out;
}

}  // namespace vmincqr::conformal
