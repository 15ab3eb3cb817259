#include "conformal/mondrian.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

#include "conformal/scores.hpp"
#include "data/split.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::conformal {

MondrianCqr::MondrianCqr(MiscoverageAlpha alpha,
                         std::unique_ptr<IntervalRegressor> base,
                         GroupFn group_fn, MondrianConfig config)
    : alpha_(alpha),
      base_(std::move(base)),
      group_fn_(std::move(group_fn)),
      config_(config) {
  if (!base_) throw std::invalid_argument("MondrianCqr: null base");
  if (!group_fn_) throw std::invalid_argument("MondrianCqr: null group_fn");
  if (std::abs(base_->alpha() - alpha) > 1e-9) {
    throw std::invalid_argument("MondrianCqr: base model alpha mismatch");
  }
}

void MondrianCqr::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() >= 3, "MondrianCqr::fit: need at least 3 samples");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(), "MondrianCqr::fit: shape mismatch");
  VMINCQR_CHECK_FINITE(y, "fit: label vector y");
  const data::RowSplit split = data::split_rows(
      x, y, config_.split.train_fraction, config_.split.seed);
  // Cleared first, so a fit that throws below leaves no half-replaced state
  // that predict_interval would read.
  calibrated_ = false;
  base_->fit(split.x_train, split.y_train);

  const IntervalPrediction band = base_->predict_interval(split.x_calib);
  const auto scores = cqr_scores(split.y_calib, band.lower, band.upper);

  pooled_q_hat_ = stats::conformal_quantile(scores, alpha_);

  std::map<int, std::vector<double>> group_scores;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const int g = group_fn_(split.x_calib.row_ptr(i), split.x_calib.cols());
    group_scores[g].push_back(scores[i]);
  }
  group_q_hat_.clear();
  for (auto& [group, s] : group_scores) {
    if (s.size() < config_.min_group_size) {
      group_q_hat_[group] = pooled_q_hat_;
    } else {
      group_q_hat_[group] = stats::conformal_quantile(s, alpha_);
    }
  }
  calibrated_ = true;
}

IntervalPrediction MondrianCqr::predict_interval(const Matrix& x) const {
  if (!calibrated_) throw std::logic_error("MondrianCqr: not calibrated");
  IntervalPrediction out = base_->predict_interval(x);
  for (std::size_t i = 0; i < out.lower.size(); ++i) {
    const int g = group_fn_(x.row_ptr(i), x.cols());
    const auto it = group_q_hat_.find(g);
    const double q = it != group_q_hat_.end() ? it->second : pooled_q_hat_;
    out.lower[i] -= q;
    out.upper[i] += q;
    if (out.lower[i] > out.upper[i]) {
      const double mid = 0.5 * (out.lower[i] + out.upper[i]);
      out.lower[i] = mid;
      out.upper[i] = mid;
    }
  }
  return out;
}

std::unique_ptr<IntervalRegressor> MondrianCqr::clone_config() const {
  return std::make_unique<MondrianCqr>(alpha_, base_->clone_config(),
                                       group_fn_, config_);
}

}  // namespace vmincqr::conformal
