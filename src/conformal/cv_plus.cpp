#include "conformal/cv_plus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "data/split.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::conformal {

CvPlusRegressor::CvPlusRegressor(MiscoverageAlpha alpha,
                                 std::unique_ptr<Regressor> model,
                                 CvPlusConfig config)
    : alpha_(alpha), prototype_(std::move(model)), config_(config) {
  if (!prototype_) throw std::invalid_argument("CvPlusRegressor: null model");
  if (config_.n_folds < 2) {
    throw std::invalid_argument("CvPlusRegressor: n_folds < 2");
  }
}

void CvPlusRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= config_.n_folds,
                  "CvPlusRegressor::fit: fewer samples than folds");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "CvPlusRegressor::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  rng::Rng rng(config_.seed);
  const auto folds = data::k_fold(x.rows(), config_.n_folds, rng);

  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict_interval would read.
  calibrated_ = false;
  fold_models_.clear();
  fold_models_.resize(folds.size());
  fold_of_sample_.assign(x.rows(), 0);
  residuals_.assign(x.rows(), 0.0);

  // Folds are independent fits writing disjoint state: fold k owns
  // fold_models_[k] and the residual/fold slots of its own test samples
  // (k_fold partitions the rows), so fold-parallel training is race-free
  // and order-free.
  parallel::parallel_for(folds.size(), /*grain=*/1, [&](std::size_t begin,
                                                        std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      Vector y_train(folds[k].train.size());
      for (std::size_t i = 0; i < folds[k].train.size(); ++i) {
        y_train[i] = y[folds[k].train[i]];
      }
      auto model = prototype_->clone_config();
      model->fit(x.take_rows(folds[k].train), y_train);

      const Matrix x_test = x.take_rows(folds[k].test);
      const Vector pred = model->predict(x_test);
      for (std::size_t i = 0; i < folds[k].test.size(); ++i) {
        const std::size_t sample = folds[k].test[i];
        fold_of_sample_[sample] = k;
        residuals_[sample] = std::abs(y[sample] - pred[i]);
      }
      fold_models_[k] = std::move(model);
    }
  });
  // Always on: CV+ ranks mu +- residual itself rather than through
  // stats::conformal_quantile, and std::sort has no valid order with a NaN.
  VMINCQR_REQUIRE(core::all_finite(residuals_),
                  "CvPlusRegressor::fit: non-finite residual");
  calibrated_ = true;
}

// Per-chunk lo/hi order-statistic scratch: the sorts must not contend across
// chunks. tests/alloc_test.cpp pins the allocation count.
IntervalPrediction CvPlusRegressor::predict_interval(const Matrix& x) const {
  if (!calibrated_) throw std::logic_error("CvPlusRegressor: not calibrated");
  const std::size_t n = residuals_.size();
  const std::size_t n_test = x.rows();

  // Precompute each fold model's predictions on all test rows (fold models
  // are independent read-only predictors writing their own slot).
  std::vector<Vector> fold_preds(fold_models_.size());
  parallel::parallel_for(
      fold_models_.size(), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          // Already batched: one dispatch per fold model predicts every
          // test row at once.
          fold_preds[k] = fold_models_[k]->predict(x);
        }
      });

  IntervalPrediction out;
  out.lower.resize(n_test);
  out.upper.resize(n_test);

  const auto k_lo_rank = static_cast<std::size_t>(
      std::floor(alpha_ * (static_cast<double>(n) + 1.0)));
  const auto k_hi_rank = static_cast<std::size_t>(
      std::ceil((1.0 - alpha_) * (static_cast<double>(n) + 1.0)));

  // Test rows are independent order-statistic computations; each chunk owns
  // private lo/hi scratch so the sorts never contend.
  parallel::parallel_for(
      n_test, /*grain=*/0,
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> lo(n), hi(n);
        for (std::size_t t = begin; t < end; ++t) {
          for (std::size_t i = 0; i < n; ++i) {
            const double mu = fold_preds[fold_of_sample_[i]][t];
            lo[i] = mu - residuals_[i];
            hi[i] = mu + residuals_[i];
          }
          // Jackknife+/CV+ order statistics: lower = floor(alpha (n+1))-th
          // smallest of lo; upper = ceil((1-alpha)(n+1))-th smallest of hi.
          std::sort(lo.begin(), lo.end());
          std::sort(hi.begin(), hi.end());
          out.lower[t] = k_lo_rank >= 1 && k_lo_rank <= n ? lo[k_lo_rank - 1]
                                                          : lo.front();
          out.upper[t] = k_hi_rank >= 1 && k_hi_rank <= n ? hi[k_hi_rank - 1]
                                                          : hi.back();
        }
      },
      /*use_pool=*/n_test >= 8);
  return out;
}

std::unique_ptr<IntervalRegressor> CvPlusRegressor::clone_config() const {
  return std::make_unique<CvPlusRegressor>(alpha_, prototype_->clone_config(),
                                           config_);
}

}  // namespace vmincqr::conformal
