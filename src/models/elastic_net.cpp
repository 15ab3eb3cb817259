#include "models/elastic_net.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "data/split.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::models {

namespace {

double soft_threshold(double z, double gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0.0;
}

}  // namespace

ElasticNetRegressor::ElasticNetRegressor(ElasticNetConfig config)
    : config_(config) {
  if (config_.lambda < 0.0) {
    throw std::invalid_argument("ElasticNetRegressor: lambda < 0");
  }
  if (config_.l1_ratio < 0.0 || config_.l1_ratio > 1.0) {
    throw std::invalid_argument("ElasticNetRegressor: l1_ratio outside [0, 1]");
  }
  if (config_.max_iterations <= 0 || config_.tolerance <= 0.0) {
    throw std::invalid_argument("ElasticNetRegressor: bad solver settings");
  }
}

void ElasticNetRegressor::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict would read.
  fitted_ = false;
  n_features_ = x.cols();
  const Matrix xs = scaler_.fit_transform(x);
  label_scaler_.fit(y);
  const Vector ys = label_scaler_.transform(y);

  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  const double inv_n = 1.0 / static_cast<double>(n);
  const double l1 = config_.lambda * config_.l1_ratio;
  const double l2 = config_.lambda * (1.0 - config_.l1_ratio);

  // Column squared norms / n (constant during descent; columns are
  // standardized so these are ~1, but exact values keep the update correct
  // for constant columns).
  Vector col_sq(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = xs.row_ptr(r);
    for (std::size_t c = 0; c < d; ++c) col_sq[c] += row[c] * row[c];
  }
  for (auto& v : col_sq) v *= inv_n;

  coef_.assign(d, 0.0);
  Vector residual = ys;  // y - X b with b = 0

  iterations_used_ = 0;
  for (int it = 0; it < config_.max_iterations; ++it) {
    double max_delta = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (col_sq[j] <= 0.0) continue;  // constant column: keep coef at 0
      // rho = (1/n) x_j . (residual + x_j * b_j)
      double rho = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        rho += xs(r, j) * residual[r];
      }
      rho = rho * inv_n + col_sq[j] * coef_[j];
      const double new_coef =
          soft_threshold(rho, l1) / (col_sq[j] + l2);
      const double delta = new_coef - coef_[j];
      // Exact-zero delta means soft_threshold clamped the step; skipping
      // the residual update is lossless (additive identity).
      if (delta != 0.0) {  // vmincqr-lint: allow(float-equality)
        for (std::size_t r = 0; r < n; ++r) residual[r] -= delta * xs(r, j);
        coef_[j] = new_coef;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    ++iterations_used_;
    if (max_delta < config_.tolerance) break;
  }
  fitted_ = true;
}

Vector ElasticNetRegressor::predict(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  const Matrix xs = scaler_.transform(x);
  Vector out(xs.rows(), 0.0);
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    const double* row = xs.row_ptr(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < xs.cols(); ++c) acc += row[c] * coef_[c];
    out[r] = acc;
  }
  return label_scaler_.inverse_transform(out);
}

std::unique_ptr<Regressor> ElasticNetRegressor::clone_config() const {
  return std::make_unique<ElasticNetRegressor>(config_);
}

std::vector<std::size_t> ElasticNetRegressor::selected_features() const {
  std::vector<std::size_t> idx;
  idx.reserve(coef_.size());
  for (std::size_t j = 0; j < coef_.size(); ++j) {
    // Soft-thresholding produces exact zeros; != 0.0 is the sparsity test.
    if (coef_[j] != 0.0) idx.push_back(j);  // vmincqr-lint: allow(float-equality)
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(coef_[a]) > std::abs(coef_[b]);
  });
  return idx;
}

ElasticNetRegressor elastic_net_cv(const Matrix& x, const Vector& y,
                                   const std::vector<double>& lambda_path,
                                   double l1_ratio, std::size_t n_folds,
                                   std::uint64_t seed) {
  if (lambda_path.empty()) {
    throw std::invalid_argument("elastic_net_cv: empty lambda path");
  }
  rng::Rng rng(seed);
  const auto folds = data::k_fold(x.rows(), n_folds, rng);

  double best_mse = std::numeric_limits<double>::infinity();
  double best_lambda = lambda_path.front();
  for (double lambda : lambda_path) {
    double mse = 0.0;
    for (const auto& fold : folds) {
      Vector y_train(fold.train.size()), y_test(fold.test.size());
      for (std::size_t i = 0; i < fold.train.size(); ++i) {
        y_train[i] = y[fold.train[i]];
      }
      for (std::size_t i = 0; i < fold.test.size(); ++i) {
        y_test[i] = y[fold.test[i]];
      }
      ElasticNetConfig config;
      config.lambda = lambda;
      config.l1_ratio = l1_ratio;
      ElasticNetRegressor model(config);
      model.fit(x.take_rows(fold.train), y_train);
      const double fold_rmse =
          stats::rmse(y_test, model.predict(x.take_rows(fold.test)));
      mse += fold_rmse * fold_rmse;
    }
    if (mse < best_mse) {
      best_mse = mse;
      best_lambda = lambda;
    }
  }

  ElasticNetConfig config;
  config.lambda = best_lambda;
  config.l1_ratio = l1_ratio;
  ElasticNetRegressor model(config);
  model.fit(x, y);
  return model;
}

}  // namespace vmincqr::models
