#include "conformal/cqr.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "conformal/scores.hpp"
#include "data/split.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::conformal {

ConformalizedQuantileRegressor::ConformalizedQuantileRegressor(
    MiscoverageAlpha alpha, std::unique_ptr<IntervalRegressor> base,
    CqrConfig config)
    : alpha_(alpha), base_(std::move(base)), config_(config) {
  if (!base_) {
    throw std::invalid_argument("ConformalizedQuantileRegressor: null base");
  }
  if (std::abs(base_->alpha() - alpha) > 1e-9) {
    throw std::invalid_argument(
        "ConformalizedQuantileRegressor: base model alpha mismatch");
  }
  if (!config_.split.valid()) {
    throw std::invalid_argument(
        "ConformalizedQuantileRegressor: train_fraction outside (0, 1)");
  }
}

void ConformalizedQuantileRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= 3,
                  "ConformalizedQuantileRegressor::fit: need at least 3 "
                  "samples");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "ConformalizedQuantileRegressor::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  const data::RowSplit split = data::split_rows(
      x, y, config_.split.train_fraction, config_.split.seed);
  fit_with_split(split.x_train, split.y_train, split.x_calib, split.y_calib);
}

void ConformalizedQuantileRegressor::fit_with_split(const Matrix& x_train,
                                                    const Vector& y_train,
                                                    const Matrix& x_calib,
                                                    const Vector& y_calib) {
  VMINCQR_REQUIRE(x_calib.rows() > 0,
                  "ConformalizedQuantileRegressor: empty calibration set");
  VMINCQR_CHECK_SHAPE(x_calib.rows() == y_calib.size(),
                      "ConformalizedQuantileRegressor: calibration shape "
                      "mismatch");
  VMINCQR_CHECK_FINITE(y_calib, "calibrate: calibration labels");
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict_interval would read.
  calibrated_ = false;
  base_->fit(x_train, y_train);
  const IntervalPrediction band = base_->predict_interval(x_calib);
  if (config_.mode == CqrMode::kSymmetric) {
    const auto scores = cqr_scores(y_calib, band.lower, band.upper);
    q_hat_lo_ = q_hat_hi_ = stats::conformal_quantile(scores, alpha_);
  } else {
    // Per-tail calibration at level alpha/2 each (union bound -> 1 - alpha).
    std::vector<double> lo_scores(y_calib.size()), hi_scores(y_calib.size());
    for (std::size_t i = 0; i < y_calib.size(); ++i) {
      lo_scores[i] = band.lower[i] - y_calib[i];
      hi_scores[i] = y_calib[i] - band.upper[i];
    }
    q_hat_lo_ = stats::conformal_quantile(lo_scores, alpha_.halved());
    q_hat_hi_ = stats::conformal_quantile(hi_scores, alpha_.halved());
  }
  // +Inf is a legitimate conservative result (calibration set too small for
  // the requested alpha -> infinite band); only NaN indicates a defect.
  VMINCQR_ENSURE(!std::isnan(q_hat_lo_) && !std::isnan(q_hat_hi_),
                 "calibrate: NaN q_hat");
  calibrated_ = true;
}

IntervalPrediction ConformalizedQuantileRegressor::predict_interval(
    const Matrix& x) const {
  if (!calibrated_) {
    throw std::logic_error("ConformalizedQuantileRegressor: not calibrated");
  }
  IntervalPrediction out = base_->predict_interval(x);
  for (std::size_t i = 0; i < out.lower.size(); ++i) {
    out.lower[i] -= q_hat_lo_;
    out.upper[i] += q_hat_hi_;
    // A strongly negative q_hat could invert a very tight band; clamp to the
    // degenerate point interval at the band centre.
    if (out.lower[i] > out.upper[i]) {
      const double mid = 0.5 * (out.lower[i] + out.upper[i]);
      out.lower[i] = mid;
      out.upper[i] = mid;
    }
  }
  VMINCQR_AUDIT(
      [&] {
        for (std::size_t i = 0; i < out.lower.size(); ++i) {
          if (std::isnan(out.lower[i]) || std::isnan(out.upper[i])) {
            return false;
          }
        }
        return true;
      }(),
      "predict_interval: NaN in conformalized band");
  return out;
}

std::unique_ptr<IntervalRegressor> ConformalizedQuantileRegressor::clone_config()
    const {
  return std::make_unique<ConformalizedQuantileRegressor>(
      alpha_, base_->clone_config(), config_);
}

std::string ConformalizedQuantileRegressor::name() const {
  // "QR CatBoost" -> "CQR CatBoost"; other bases get a "CQR " prefix.
  const std::string base_name = base_->name();
  std::string name = base_name.rfind("QR ", 0) == 0 ? "C" + base_name
                                                    : "CQR " + base_name;
  if (config_.mode == CqrMode::kAsymmetric) name += " (asym)";
  return name;
}

double ConformalizedQuantileRegressor::q_hat() const {
  if (!calibrated_) {
    throw std::logic_error("ConformalizedQuantileRegressor: not calibrated");
  }
  return 0.5 * (q_hat_lo_ + q_hat_hi_);
}

double ConformalizedQuantileRegressor::q_hat_lower() const {
  if (!calibrated_) {
    throw std::logic_error("ConformalizedQuantileRegressor: not calibrated");
  }
  return q_hat_lo_;
}

double ConformalizedQuantileRegressor::q_hat_upper() const {
  if (!calibrated_) {
    throw std::logic_error("ConformalizedQuantileRegressor: not calibrated");
  }
  return q_hat_hi_;
}

CqrCalibration ConformalizedQuantileRegressor::export_calibration() const {
  if (!calibrated_) {
    throw std::logic_error("ConformalizedQuantileRegressor: not calibrated");
  }
  return {q_hat_lo_, q_hat_hi_};
}

void ConformalizedQuantileRegressor::import_calibration(
    CqrCalibration calibration) {
  if (std::isnan(calibration.q_hat_lo) || std::isnan(calibration.q_hat_hi)) {
    throw std::invalid_argument(
        "ConformalizedQuantileRegressor::import_calibration: NaN q_hat");
  }
  q_hat_lo_ = calibration.q_hat_lo;
  q_hat_hi_ = calibration.q_hat_hi;
  calibrated_ = true;
}

}  // namespace vmincqr::conformal
