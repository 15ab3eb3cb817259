#include "models/linear.hpp"

#include <cmath>
#include <utility>

#include "linalg/decomp.hpp"
#include "linalg/ops.hpp"

namespace vmincqr::models {

LinearRegressor::LinearRegressor(LinearConfig config) : config_(config) {
  if (config_.ridge_lambda < 0.0) {
    throw std::invalid_argument("LinearRegressor: ridge_lambda < 0");
  }
  if (config_.pinball_epochs <= 0 || config_.pinball_lr <= 0.0) {
    throw std::invalid_argument("LinearRegressor: bad optimizer settings");
  }
}

void LinearRegressor::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict would read.
  fitted_ = false;
  n_features_ = x.cols();
  Matrix xs = scaler_.fit_transform(x);
  label_scaler_.fit(y);
  Vector ys = label_scaler_.transform(y);
  if (config_.loss.kind == LossKind::kSquared) {
    fit_squared(xs, ys);
  } else {
    fit_pinball(xs, ys);
  }
  fitted_ = true;
}

void LinearRegressor::fit_squared(const Matrix& xs, const Vector& ys) {
  const Matrix design = xs.with_intercept();
  coef_ = linalg::ridge_solve(design, ys, config_.ridge_lambda);
}

void LinearRegressor::fit_pinball(const Matrix& xs, const Vector& ys) {
  const Matrix design = xs.with_intercept();
  const std::size_t d = design.cols();
  const std::size_t n = design.rows();
  coef_.assign(d, 0.0);

  // Adam on the mean pinball subgradient.
  Vector m(d, 0.0), v(d, 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  Vector grad(d, 0.0);
  for (int epoch = 1; epoch <= config_.pinball_epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = design.row_ptr(i);
      double y_hat = 0.0;
      for (std::size_t j = 0; j < d; ++j) y_hat += row[j] * coef_[j];
      const double g = config_.loss.gradient(ys[i], y_hat);
      for (std::size_t j = 0; j < d; ++j) grad[j] += g * row[j];
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < d; ++j) {
      const double gj = grad[j] * inv_n;
      m[j] = beta1 * m[j] + (1.0 - beta1) * gj;
      v[j] = beta2 * v[j] + (1.0 - beta2) * gj * gj;
      const double m_hat = m[j] / (1.0 - std::pow(beta1, epoch));
      const double v_hat = v[j] / (1.0 - std::pow(beta2, epoch));
      coef_[j] -= config_.pinball_lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
}

Vector LinearRegressor::predict(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  const Matrix design = scaler_.transform(x).with_intercept();
  Vector ys = linalg::matvec(design, coef_);
  return label_scaler_.inverse_transform(ys);
}

std::unique_ptr<Regressor> LinearRegressor::clone_config() const {
  return std::make_unique<LinearRegressor>(config_);
}

LinearParams LinearRegressor::export_params() const {
  if (!fitted_) {
    throw std::logic_error("LinearRegressor::export_params: not fitted");
  }
  return {scaler_.export_params(), label_scaler_.export_params(), coef_};
}

void LinearRegressor::import_params(LinearParams params) {
  if (params.coef.size() != params.scaler.means.size() + 1) {
    throw std::invalid_argument(
        "LinearRegressor::import_params: coef/feature count mismatch");
  }
  scaler_.import_params(std::move(params.scaler));
  label_scaler_.import_params(params.label);
  coef_ = std::move(params.coef);
  n_features_ = scaler_.means().size();
  fitted_ = true;
}

double LinearRegressor::Affine::evaluate(const Vector& x) const {
  if (x.size() != weights.size()) {
    throw std::invalid_argument("LinearRegressor::Affine: length mismatch");
  }
  double acc = intercept;
  for (std::size_t j = 0; j < x.size(); ++j) acc += weights[j] * x[j];
  return acc;
}

LinearRegressor::Affine LinearRegressor::raw_affine() const {
  if (!fitted_) {
    throw std::logic_error("LinearRegressor::raw_affine: not fitted");
  }
  // Standardized-space model: ys = c0 + sum_j c_j (x_j - m_j) / s_j, then
  // y = label_mean + label_scale * ys. Fold the scalers into raw-space
  // weights so the exported affine needs no preprocessing.
  const auto& means = scaler_.means();
  const auto& scales = scaler_.scales();
  const double label_scale = label_scaler_.scale();
  Affine affine;
  affine.weights.resize(n_features_);
  double b = coef_[0];
  for (std::size_t j = 0; j < n_features_; ++j) {
    const double w_std = coef_[j + 1];
    affine.weights[j] = label_scale * w_std / scales[j];
    b -= w_std * means[j] / scales[j];
  }
  affine.intercept = label_scaler_.inverse_transform(b);
  return affine;
}

}  // namespace vmincqr::models
