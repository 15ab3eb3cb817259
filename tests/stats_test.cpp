// Unit + property tests for descriptive statistics, quantiles (including the
// conformal quantile), distributions, and evaluation metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/metrics.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::stats {
namespace {

TEST(Descriptive, MeanVarianceStddev) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(sample_variance(v), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(sample_variance({1.0}), std::invalid_argument);
}

TEST(Descriptive, PearsonPerfectAndAnti) {
  std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_NEAR(pearson(a, {2.0, 4.0, 6.0}), 1.0, 1e-12);
  EXPECT_NEAR(pearson(a, {3.0, 2.0, 1.0}), -1.0, 1e-12);
}

TEST(Descriptive, PearsonConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Descriptive, PearsonValidation) {
  EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(pearson({}, {}), std::invalid_argument);
}

TEST(Descriptive, MinMax) {
  std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
}

TEST(Quantile, LinearInterpolation) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_linear(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_linear(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_linear(v, 0.5), 2.5);
  EXPECT_THROW(quantile_linear(v, 1.5), std::invalid_argument);
  EXPECT_THROW(quantile_linear({}, 0.5), std::invalid_argument);
}

TEST(Quantile, HigherOrderStatistic) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile_higher(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(quantile_higher(v, 0.26), 20.0);
  EXPECT_DOUBLE_EQ(quantile_higher(v, 1.0), 40.0);
}

TEST(Quantile, ConformalQuantileMatchesHandComputation) {
  // M = 9, alpha = 0.1: rank = ceil(10 * 0.9) = 9 -> 9th smallest.
  std::vector<double> scores{1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(conformal_quantile(scores, core::MiscoverageAlpha{0.1}), 9.0);
  // M = 19, alpha = 0.1: rank = ceil(20 * 0.9) = 18.
  std::vector<double> s19(19);
  for (std::size_t i = 0; i < 19; ++i) s19[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(conformal_quantile(s19, core::MiscoverageAlpha{0.1}), 18.0);
}

TEST(Quantile, ConformalQuantileInfiniteWhenTooFewSamples) {
  // M = 5, alpha = 0.1: ceil(6 * 0.9) = 6 > 5 -> infinite interval needed.
  std::vector<double> scores{1, 2, 3, 4, 5};
  EXPECT_TRUE(std::isinf(conformal_quantile(scores, core::MiscoverageAlpha{0.1})));
}

TEST(Quantile, ConformalQuantileNearAlphaOne) {
  std::vector<double> scores{3.0, 1.0, 2.0};
  // alpha -> 1: rank = ceil((M+1)(1-alpha)) = 1 -> the minimum score.
  // (alpha = 1 exactly is no longer representable: MiscoverageAlpha rejects
  // the closed endpoints at construction.)
  EXPECT_DOUBLE_EQ(conformal_quantile(scores, core::MiscoverageAlpha{0.99}),
                   1.0);
}

TEST(Quantile, MinCalibrationSize) {
  // alpha = 0.1 -> smallest M with ceil((M+1)*0.9) <= M is M = 9.
  EXPECT_EQ(min_calibration_size(core::MiscoverageAlpha{0.1}), 9u);
  EXPECT_EQ(min_calibration_size(core::MiscoverageAlpha{0.5}), 1u);
  EXPECT_EQ(min_calibration_size(core::MiscoverageAlpha{0.99}), 1u);
}

TEST(Quantile, ConformalQuantileRejectsNonFiniteScoresInEveryBuildType) {
  // std::sort has no valid order with a NaN in it, so q-hat would depend on
  // where the NaN sat; an infinite score has no finite quantile to offer.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const std::size_t at : {0u, 9u, 19u}) {
      std::vector<double> scores(20);
      for (std::size_t i = 0; i < 20; ++i) scores[i] = static_cast<double>(i);
      scores[at] = bad;
      try {
        (void)conformal_quantile(scores, core::MiscoverageAlpha{0.1});
        ADD_FAILURE() << bad << " at " << at << " was accepted";
      } catch (const core::contract_violation& e) {
        EXPECT_EQ(e.kind(), "precondition") << bad << " at " << at;
      }
    }
  }
  // The scan runs before the size test: a too-small set of finite scores
  // still returns +inf, but one holding a NaN throws.
  EXPECT_THROW(
      (void)conformal_quantile({1.0, std::numeric_limits<double>::quiet_NaN()},
                               core::MiscoverageAlpha{0.1}),
      core::contract_violation);
}

TEST(Quantile, ConformalQuantileValidation) {
  EXPECT_THROW(conformal_quantile({}, core::MiscoverageAlpha{0.1}),
               std::invalid_argument);
  // Out-of-range alpha is rejected at the type boundary now.
  EXPECT_THROW(core::MiscoverageAlpha{-0.1}, std::invalid_argument);
}

TEST(Distributions, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
}

TEST(Distributions, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.05, 0.3, 0.5, 0.7, 0.95, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

TEST(Distributions, QuantileSymmetry) {
  EXPECT_NEAR(normal_quantile(0.05), -normal_quantile(0.95), 1e-9);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
}

TEST(Metrics, RSquaredPerfectAndMeanPredictor) {
  std::vector<double> truth{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
  std::vector<double> mean_pred{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r_squared(truth, mean_pred), 0.0);
}

TEST(Metrics, RSquaredConstantTruth) {
  EXPECT_DOUBLE_EQ(r_squared({2.0, 2.0}, {2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(r_squared({2.0, 2.0}, {1.0, 3.0}), 0.0);
}

TEST(Metrics, RSquaredConstantTruthWithRoundingNoiseIsBounded) {
  // The mean of {0.1, 0.1, 0.1} is not exactly 0.1 in binary floating
  // point, so ss_tot lands at rounding-noise scale (~1e-34) instead of
  // exactly zero. Before the epsilon guard, r_squared divided by that
  // noise and returned values on the order of -1e+32.
  const std::vector<double> truth{0.1, 0.1, 0.1};
  EXPECT_DOUBLE_EQ(r_squared(truth, {0.2, 0.2, 0.2}), 0.0);
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
}

TEST(Metrics, RmseAndMae) {
  std::vector<double> truth{0.0, 0.0}, pred{3.0, -4.0};
  EXPECT_DOUBLE_EQ(rmse(truth, pred), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(mae(truth, pred), 3.5);
  EXPECT_THROW(rmse({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Metrics, CoverageCountsInclusiveBounds) {
  std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  std::vector<double> lo{1.0, 2.5, 2.0, 0.0};
  std::vector<double> hi{1.0, 3.0, 4.0, 3.9};
  // covered: 1.0 in [1,1] yes; 2.0 in [2.5,3] no; 3.0 in [2,4] yes;
  // 4.0 in [0,3.9] no.
  EXPECT_DOUBLE_EQ(interval_coverage(truth, lo, hi), 0.5);
}

TEST(Metrics, MeanIntervalLength) {
  EXPECT_DOUBLE_EQ(mean_interval_length({0.0, 1.0}, {2.0, 5.0}), 3.0);
}

TEST(Metrics, PinballLossMinimizedAtQuantile) {
  // For a sample, the constant minimizing mean pinball loss at level q is
  // the empirical q-quantile — verify by scanning candidates.
  rng::Rng rng(21);
  std::vector<double> y = rng.normal_vector(400);
  for (double q : {0.1, 0.5, 0.9}) {
    const double best_point = quantile_linear(y, q);
    const double loss_at_quantile =
        pinball_loss(y, std::vector<double>(y.size(), best_point), q);
    for (double delta : {-0.3, -0.1, 0.1, 0.3}) {
      const double loss_other = pinball_loss(
          y, std::vector<double>(y.size(), best_point + delta), q);
      EXPECT_LE(loss_at_quantile, loss_other + 1e-12)
          << "q=" << q << " delta=" << delta;
    }
  }
}

// Property sweep: the conformal quantile never exceeds the max score and is
// monotone in (1 - alpha).
class ConformalQuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConformalQuantileProperty, MonotoneInCoverage) {
  rng::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> scores = rng.normal_vector(50, 0.0, 2.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (double alpha : {0.5, 0.3, 0.2, 0.1, 0.05}) {
    const double q = conformal_quantile(scores, core::MiscoverageAlpha{alpha});
    EXPECT_GE(q, prev);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformalQuantileProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace vmincqr::stats
