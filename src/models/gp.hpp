// Gaussian-process regression with an RBF kernel (paper Sec. II-B.1 and
// IV-C.1). Hyperparameters (length scale, noise variance) are selected by
// maximizing the log marginal likelihood over a log-spaced grid — robust for
// the paper's small-n regime where gradient ascent on the likelihood is
// fragile.
//
// Besides the Regressor interface (posterior mean), the model exposes the
// posterior variance used to build the Eq. (4) prediction interval.
#pragma once

#include "data/scaler.hpp"
#include "models/regressor.hpp"

namespace vmincqr::models {

struct GpConfig {
  /// Candidate length scales (in standardized-feature units). Empty -> a
  /// default log-spaced grid [0.3, 30].
  std::vector<double> length_scale_grid;
  /// Candidate noise variances (fraction of standardized label variance).
  std::vector<double> noise_grid;
  double signal_variance = 1.0;  ///< labels are standardized; keep 1.0
};

/// Posterior mean and variance at query points.
struct GpPosterior {
  Vector mean;
  Vector variance;  ///< includes the learned noise variance
};

class GaussianProcessRegressor final : public Regressor {
 public:
  explicit GaussianProcessRegressor(GpConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "Gaussian Process"; }
  [[nodiscard]] bool fitted() const override { return fitted_; }

  /// Posterior mean and variance, in label units (volts).
  [[nodiscard]] GpPosterior posterior(const Matrix& x) const;

  [[nodiscard]] double length_scale() const noexcept { return length_scale_; }
  [[nodiscard]] double noise_variance() const noexcept { return noise_variance_; }
  [[nodiscard]] double log_marginal_likelihood() const noexcept { return best_lml_; }

 private:
  double compute_lml(const Matrix& k, const Vector& ys, Matrix* chol_out,
                     Vector* alpha_out) const;
  [[nodiscard]] Matrix kernel(const Matrix& a, const Matrix& b, double length_scale) const;

  GpConfig config_;
  data::StandardScaler scaler_;
  data::LabelScaler label_scaler_;
  Matrix x_train_;       // standardized training inputs
  Matrix chol_;          // Cholesky of K + sn2 I
  Vector alpha_;         // (K + sn2 I)^{-1} y
  double length_scale_ = 1.0;
  double noise_variance_ = 1e-2;
  double best_lml_ = 0.0;
  std::size_t n_features_ = 0;
  bool fitted_ = false;
};

}  // namespace vmincqr::models
