#include "models/gp.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "linalg/decomp.hpp"
#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::models {

namespace {

/// Kernel/posterior work (pairs of rows) below which assembly stays inline.
constexpr std::size_t kMinParallelKernelWork = 4096;

/// One grid cell's outcome in the hyperparameter search: the best
/// (lml, ls, sn2) over a chunk of length scales.
struct GridCandidate {
  double lml = -std::numeric_limits<double>::infinity();
  double length_scale = 0.0;
  double noise_variance = 0.0;
};

std::vector<double> log_spaced(double lo, double hi, std::size_t n) {
  std::vector<double> out(n);
  const double llo = std::log(lo), lhi = std::log(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = n == 1 ? 0.0
                            : static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    out[i] = std::exp(llo + (lhi - llo) * f);
  }
  return out;
}

}  // namespace

GaussianProcessRegressor::GaussianProcessRegressor(GpConfig config)
    : config_(std::move(config)) {
  if (config_.length_scale_grid.empty()) {
    config_.length_scale_grid = log_spaced(0.3, 30.0, 10);
  }
  if (config_.noise_grid.empty()) {
    config_.noise_grid = log_spaced(1e-4, 0.5, 8);
  }
  if (config_.signal_variance <= 0.0) {
    throw std::invalid_argument("GaussianProcessRegressor: signal_variance <= 0");
  }
}

Matrix GaussianProcessRegressor::kernel(const Matrix& a, const Matrix& b,
                                        double length_scale) const {
  Matrix k(a.rows(), b.rows());
  const double inv_two_l2 = 1.0 / (2.0 * length_scale * length_scale);
  // Each chunk fills whole rows of k — disjoint writes, and every entry is
  // a pure function of its (i, j), so assembly order cannot matter. The
  // distance kernel writes each row's squared distances straight into k,
  // and the exp pass transforms them in place (no per-chunk scratch).
  parallel::parallel_for(
      a.rows(), /*grain=*/0,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          double* krow = k.row_ptr(i);
          linalg::row_sq_dists(a.row_ptr(i), a.cols(), b.row_ptr(0), b.cols(),
                               b.rows(), krow);
          for (std::size_t j = 0; j < b.rows(); ++j) {
            krow[j] = config_.signal_variance * std::exp(-krow[j] * inv_two_l2);
          }
        }
      },
      /*use_pool=*/a.rows() * b.rows() >= kMinParallelKernelWork);
  return k;
}

double GaussianProcessRegressor::compute_lml(const Matrix& k, const Vector& ys,
                                             Matrix* chol_out,
                                             Vector* alpha_out) const {
  const std::size_t n = k.rows();
  Matrix l;
  try {
    l = linalg::cholesky_jittered(k, 1e-10, 8);
  } catch (const std::runtime_error&) {
    return -std::numeric_limits<double>::infinity();
  }
  Vector alpha = linalg::backward_substitute_transposed(
      l, linalg::forward_substitute(l, ys));
  const double fit_term = -0.5 * linalg::dot(ys, alpha);
  const double det_term = -0.5 * linalg::log_det_from_cholesky(l);
  const double const_term =
      -0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  if (chol_out) *chol_out = std::move(l);
  if (alpha_out) *alpha_out = std::move(alpha);
  return fit_term + det_term + const_term;
}

void GaussianProcessRegressor::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  n_features_ = x.cols();
  x_train_ = scaler_.fit_transform(x);
  label_scaler_.fit(y);
  const Vector ys = label_scaler_.transform(y);
  const std::size_t n = x_train_.rows();

  // Hyperparameter search, parallel across length scales (the expensive
  // axis: one kernel + |noise_grid| factorizations per cell). Each chunk
  // scans its (ls, sn2) cells in grid order; chunk bests fold in ascending
  // length-scale order, so the selected hyperparameters match a sequential
  // grid scan at every thread count.
  const GridCandidate best = parallel::parallel_deterministic_reduce(
      config_.length_scale_grid.size(), /*grain=*/1, GridCandidate{},
      [&](std::size_t g_begin, std::size_t g_end) {
        GridCandidate local;
        for (std::size_t g = g_begin; g < g_end; ++g) {
          const double ls = config_.length_scale_grid[g];
          const Matrix k_base = kernel(x_train_, x_train_, ls);
          for (double sn2 : config_.noise_grid) {
            Matrix k = k_base;
            for (std::size_t i = 0; i < n; ++i) k(i, i) += sn2;
            const double lml = compute_lml(k, ys, nullptr, nullptr);
            if (lml > local.lml) {
              local.lml = lml;
              local.length_scale = ls;
              local.noise_variance = sn2;
            }
          }
        }
        return local;
      },
      [](GridCandidate acc, GridCandidate part) {
        return part.lml > acc.lml ? part : acc;
      });
  length_scale_ = best.length_scale;
  noise_variance_ = best.noise_variance;
  if (!std::isfinite(best.lml)) {
    throw std::runtime_error(
        "GaussianProcessRegressor::fit: no hyperparameter setting produced a "
        "positive-definite kernel");
  }

  // Refit at the selected hyperparameters, keeping the factorization.
  Matrix k = kernel(x_train_, x_train_, length_scale_);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise_variance_;
  compute_lml(k, ys, &chol_, &alpha_);
  fitted_ = true;
}

// Input validation runs in posterior() (check_predict_args).
// vmincqr-lint: allow(contract-coverage)
Vector GaussianProcessRegressor::predict(const Matrix& x) const {
  return posterior(x).mean;
}

// Per-chunk variance scratch: one vector per pool chunk, reused across every
// row of the chunk. tests/alloc_test.cpp pins the allocation count.
GpPosterior GaussianProcessRegressor::posterior(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  const Matrix xs = scaler_.transform(x);
  const Matrix k_star = kernel(xs, x_train_, length_scale_);

  GpPosterior post;
  post.mean = linalg::matvec(k_star, alpha_);
  post.variance.resize(xs.rows());
  parallel::parallel_for(
      xs.rows(), /*grain=*/0,
      [&](std::size_t begin, std::size_t end) {
        Vector v;  // hoisted per chunk; forward_substitute_row reuses it
        for (std::size_t i = begin; i < end; ++i) {
          // v = L^{-1} k_star_i ; var = k(x,x) + sn2 - v^T v
          linalg::forward_substitute_row(chol_, k_star, i, &v);
          double var =
              config_.signal_variance + noise_variance_ - linalg::dot(v, v);
          post.variance[i] = std::max(var, 1e-12);
        }
      },
      /*use_pool=*/xs.rows() * x_train_.rows() >= kMinParallelKernelWork);

  // Back to label units.
  const double s = label_scaler_.scale();
  for (auto& m : post.mean) m = label_scaler_.inverse_transform(m);
  for (auto& v : post.variance) v *= s * s;
  return post;
}

std::unique_ptr<Regressor> GaussianProcessRegressor::clone_config() const {
  return std::make_unique<GaussianProcessRegressor>(config_);
}

}  // namespace vmincqr::models
