// Elastic-net linear regression (coordinate descent) — an extension beyond
// the paper's model zoo, included because the production parametric data is
// ~2000-dimensional with ~120 training chips: L1-regularized models perform
// embedded feature selection and are the natural alternative to the CFS +
// plain-LR pipeline (ablated in bench/ablation_design).
//
// Objective (standardized features, centred labels):
//   (1/2n) ||y - X b||^2 + lambda * (l1_ratio * ||b||_1
//                                    + (1 - l1_ratio)/2 * ||b||_2^2)
#pragma once

#include "data/scaler.hpp"
#include "models/regressor.hpp"

namespace vmincqr::models {

struct ElasticNetConfig {
  double lambda = 1e-2;    ///< overall regularization strength
  double l1_ratio = 0.5;   ///< 1 = lasso, 0 = ridge
  int max_iterations = 1000;
  double tolerance = 1e-8;  ///< max coefficient change for convergence
};

class ElasticNetRegressor final : public Regressor {
 public:
  /// Throws std::invalid_argument for lambda < 0, l1_ratio outside [0, 1],
  /// or non-positive iteration/tolerance settings.
  explicit ElasticNetRegressor(ElasticNetConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "Elastic Net"; }
  [[nodiscard]] bool fitted() const override { return fitted_; }

  /// Coefficients in the standardized feature space (no intercept entry;
  /// the intercept is absorbed by centring).
  [[nodiscard]] const Vector& coefficients() const { return coef_; }

  /// Indices of features with non-zero coefficients (the embedded
  /// selection), sorted by descending |coefficient|.
  [[nodiscard]] std::vector<std::size_t> selected_features() const;

  /// Number of coordinate-descent sweeps the last fit used.
  [[nodiscard]] int iterations_used() const noexcept { return iterations_used_; }

 private:
  ElasticNetConfig config_;
  data::StandardScaler scaler_;
  data::LabelScaler label_scaler_;
  Vector coef_;
  std::size_t n_features_ = 0;
  int iterations_used_ = 0;
  bool fitted_ = false;
};

/// Selects lambda from a log-spaced path by k-fold CV mean squared error,
/// then fits on all data with the winner. Returns the fitted model.
/// Throws std::invalid_argument on empty path or bad fold count.
ElasticNetRegressor elastic_net_cv(const Matrix& x, const Vector& y,
                                   const std::vector<double>& lambda_path,
                                   double l1_ratio, std::size_t n_folds,
                                   std::uint64_t seed);

}  // namespace vmincqr::models
