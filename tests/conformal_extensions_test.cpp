// Tests for the conformal extensions: Mondrian (group-conditional) CQR,
// normalized (locally-weighted) CP, and CV+ (cross-conformal), plus how
// every calibrator, split CP and CQR included, handles a rejected refit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "conformal/cqr.hpp"
#include "conformal/cv_plus.hpp"
#include "conformal/mondrian.hpp"
#include "conformal/normalized.hpp"
#include "conformal/split_cp.hpp"
#include "core/contracts.hpp"
#include "models/factory.hpp"
#include "models/region.hpp"
#include "rng/rng.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::conformal {
namespace {

using models::ModelKind;

struct Problem {
  models::Matrix x;
  models::Vector y;
};

// Two regimes split on x0: the x0 > 0 group is 5x noisier.
Problem make_grouped(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  Problem p{models::Matrix(n, 2), models::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.uniform(-1.0, 1.0);
    p.x(i, 1) = rng.normal();
    const double sd = p.x(i, 0) > 0.0 ? 0.5 : 0.1;
    p.y[i] = p.x(i, 1) + rng.normal(0.0, sd);
  }
  return p;
}

int group_of(const double* row, std::size_t) { return row[0] > 0.0 ? 1 : 0; }

TEST(Mondrian, PerGroupAdjustmentsDiffer) {
  const auto p = make_grouped(600, 1);
  MondrianCqr mondrian(core::MiscoverageAlpha{0.1},
                       models::make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.1}),
                       group_of);
  mondrian.fit(p.x, p.y);
  ASSERT_EQ(mondrian.group_q_hat().size(), 2u);
  // The noisy group needs a larger widening than the quiet one.
  EXPECT_GT(mondrian.group_q_hat().at(1), mondrian.group_q_hat().at(0));
}

TEST(Mondrian, GroupConditionalCoverage) {
  double cov_quiet = 0.0, cov_noisy = 0.0;
  const int n_trials = 8;
  for (int t = 0; t < n_trials; ++t) {
    const auto train = make_grouped(600, 10 + static_cast<std::uint64_t>(t));
    const auto test = make_grouped(600, 200 + static_cast<std::uint64_t>(t));
    MondrianConfig config;
    config.split.seed = static_cast<std::uint64_t>(t);
    MondrianCqr mondrian(core::MiscoverageAlpha{0.1},
                         models::make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.1}),
                         group_of, config);
    mondrian.fit(train.x, train.y);
    const auto band = mondrian.predict_interval(test.x);
    double hit_q = 0, n_q = 0, hit_n = 0, n_n = 0;
    for (std::size_t i = 0; i < test.y.size(); ++i) {
      const bool hit =
          test.y[i] >= band.lower[i] && test.y[i] <= band.upper[i];
      if (test.x(i, 0) > 0.0) {
        hit_n += hit;
        ++n_n;
      } else {
        hit_q += hit;
        ++n_q;
      }
    }
    cov_quiet += hit_q / n_q;
    cov_noisy += hit_n / n_n;
  }
  EXPECT_GE(cov_quiet / n_trials, 0.86);
  EXPECT_GE(cov_noisy / n_trials, 0.86);
}

TEST(Mondrian, SmallGroupsFallBackToPooled) {
  const auto p = make_grouped(60, 3);
  MondrianConfig config;
  config.min_group_size = 1000;  // force fallback for every group
  MondrianCqr mondrian(core::MiscoverageAlpha{0.1},
                       models::make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.1}),
                       group_of, config);
  mondrian.fit(p.x, p.y);
  for (const auto& [g, q] : mondrian.group_q_hat()) {
    EXPECT_DOUBLE_EQ(q, mondrian.pooled_q_hat());
  }
}

TEST(Mondrian, Validation) {
  EXPECT_THROW(MondrianCqr(core::MiscoverageAlpha{0.1}, nullptr, group_of), std::invalid_argument);
  EXPECT_THROW(MondrianCqr(core::MiscoverageAlpha{0.1},
                           models::make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.1}),
                           nullptr),
               std::invalid_argument);
}

TEST(NormalizedCp, WidthsAdaptToDifficulty) {
  const auto p = make_grouped(800, 4);
  NormalizedConformalRegressor ncp(
      core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
      models::make_point_regressor(ModelKind::kCatboost));
  ncp.fit(p.x, p.y);
  models::Matrix quiet(1, 2), noisy(1, 2);
  quiet(0, 0) = -0.8;
  quiet(0, 1) = 0.0;
  noisy(0, 0) = 0.8;
  noisy(0, 1) = 0.0;
  const auto bq = ncp.predict_interval(quiet);
  const auto bn = ncp.predict_interval(noisy);
  EXPECT_GT(bn.upper[0] - bn.lower[0], bq.upper[0] - bq.lower[0]);
}

TEST(NormalizedCp, CoversOnAverage) {
  double cov = 0.0;
  const int n_trials = 8;
  for (int t = 0; t < n_trials; ++t) {
    const auto train = make_grouped(500, 50 + static_cast<std::uint64_t>(t));
    const auto test = make_grouped(500, 300 + static_cast<std::uint64_t>(t));
    NormalizedConfig config;
    config.split.seed = static_cast<std::uint64_t>(t);
    NormalizedConformalRegressor ncp(
        core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
        models::make_point_regressor(ModelKind::kCatboost), config);
    ncp.fit(train.x, train.y);
    const auto band = ncp.predict_interval(test.x);
    cov += stats::interval_coverage(test.y, band.lower, band.upper);
  }
  EXPECT_GE(cov / n_trials, 0.87);
}

TEST(NormalizedCp, Validation) {
  EXPECT_THROW(NormalizedConformalRegressor(
                   core::MiscoverageAlpha{0.1}, nullptr, models::make_point_regressor(ModelKind::kLinear)),
               std::invalid_argument);
  NormalizedConformalRegressor ncp(
      core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
      models::make_point_regressor(ModelKind::kLinear));
  EXPECT_THROW(ncp.predict_interval(models::Matrix(1, 2)), std::logic_error);
}

TEST(CvPlus, CoversOnAverage) {
  double cov = 0.0;
  const int n_trials = 8;
  for (int t = 0; t < n_trials; ++t) {
    const auto train = make_grouped(200, 70 + static_cast<std::uint64_t>(t));
    const auto test = make_grouped(400, 500 + static_cast<std::uint64_t>(t));
    CvPlusConfig config;
    config.seed = static_cast<std::uint64_t>(t);
    CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
                        config);
    cvp.fit(train.x, train.y);
    const auto band = cvp.predict_interval(test.x);
    cov += stats::interval_coverage(test.y, band.lower, band.upper);
  }
  EXPECT_GE(cov / n_trials, 0.87);
}

TEST(CvPlus, UsesAllTrainingResiduals) {
  const auto p = make_grouped(100, 6);
  CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear));
  cvp.fit(p.x, p.y);
  const auto band = cvp.predict_interval(p.x.take_rows({0, 1}));
  EXPECT_EQ(band.lower.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_LE(band.lower[i], band.upper[i]);
}

/// Predicts, for every row, whatever `*value` holds when predict runs.
class ConstantRegressor final : public models::Regressor {
 public:
  explicit ConstantRegressor(const double* value) : value_(value) {}
  void fit(const models::Matrix&, const models::Vector&) override {
    fitted_ = true;
  }
  models::Vector predict(const models::Matrix& x) const override {
    return models::Vector(x.rows(), *value_);
  }
  std::unique_ptr<models::Regressor> clone_config() const override {
    return std::make_unique<ConstantRegressor>(value_);
  }
  std::string name() const override { return "constant"; }
  bool fitted() const override { return fitted_; }

 private:
  const double* value_;
  bool fitted_ = false;
};

/// A quantile pair whose two bounds both read `*value`.
std::unique_ptr<models::IntervalRegressor> constant_pair(const double* value) {
  return std::make_unique<models::QuantilePairRegressor>(
      core::MiscoverageAlpha{0.1}, std::make_unique<ConstantRegressor>(value),
      std::make_unique<ConstantRegressor>(value), "constant pair");
}

TEST(Calibration, RejectedRefitLeavesNoCalibrationInEveryBuildType) {
  // Finite inputs, non-finite base predictions: no finite-scan tier stands in
  // front of the always-on score check. CQR, split, normalized and Mondrian
  // CP rank their scores through stats::conformal_quantile; CV+ ranks
  // mu +- residual itself and checks its residuals the same way.
  const auto p = make_grouped(40, 9);
  const core::MiscoverageAlpha alpha{0.1};
  const double inf = std::numeric_limits<double>::infinity();
  const double one = 1.0;
  double prediction = 0.0;
  CqrConfig asymmetric;
  asymmetric.mode = CqrMode::kAsymmetric;
  std::vector<std::unique_ptr<models::IntervalRegressor>> methods;
  methods.push_back(std::make_unique<ConformalizedQuantileRegressor>(
      alpha, constant_pair(&prediction)));
  methods.push_back(std::make_unique<ConformalizedQuantileRegressor>(
      alpha, constant_pair(&prediction), asymmetric));
  methods.push_back(std::make_unique<SplitConformalRegressor>(
      alpha, std::make_unique<ConstantRegressor>(&prediction)));
  methods.push_back(std::make_unique<NormalizedConformalRegressor>(
      alpha, std::make_unique<ConstantRegressor>(&prediction),
      std::make_unique<ConstantRegressor>(&one)));
  methods.push_back(std::make_unique<MondrianCqr>(
      alpha, constant_pair(&prediction), group_of));
  methods.push_back(std::make_unique<CvPlusRegressor>(
      alpha, std::make_unique<ConstantRegressor>(&prediction)));
  for (const auto& method : methods) {
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      prediction = 0.0;
      method->fit(p.x, p.y);
      prediction = bad;
      try {
        method->fit(p.x, p.y);
        ADD_FAILURE() << method->name() << ": a base predicting " << bad
                      << " was accepted";
      } catch (const core::contract_violation& e) {
        EXPECT_EQ(e.kind(), "precondition") << method->name() << " " << bad;
      }
      // The rejected refit leaves no calibration behind, although the same
      // object was calibrated just before and its base predicts finitely.
      prediction = 0.0;
      EXPECT_THROW((void)method->predict_interval(p.x), std::logic_error)
          << method->name() << " " << bad;
    }
  }
}

TEST(CvPlus, Validation) {
  EXPECT_THROW(CvPlusRegressor(core::MiscoverageAlpha{0.1}, nullptr), std::invalid_argument);
  CvPlusConfig bad;
  bad.n_folds = 1;
  EXPECT_THROW(CvPlusRegressor(core::MiscoverageAlpha{0.1},
                               models::make_point_regressor(ModelKind::kLinear),
                               bad),
               std::invalid_argument);
  CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear));
  EXPECT_THROW(cvp.predict_interval(models::Matrix(1, 2)), std::logic_error);
}

}  // namespace
}  // namespace vmincqr::conformal
