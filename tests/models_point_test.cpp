// Tests for the point regressors: losses, linear (OLS + quantile), GP, MLP.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "models/factory.hpp"
#include "models/gp.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::models {
namespace {

// y = 2 x0 - x1 + 0.5 + noise(sigma)
struct LinearProblem {
  Matrix x;
  Vector y;
};

LinearProblem make_linear_problem(std::size_t n, double sigma,
                                  std::uint64_t seed) {
  rng::Rng rng(seed);
  LinearProblem p{Matrix(n, 2), Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.normal();
    p.x(i, 1) = rng.normal();
    p.y[i] = 2.0 * p.x(i, 0) - p.x(i, 1) + 0.5 + rng.normal(0.0, sigma);
  }
  return p;
}

TEST(Loss, PinballValueAndGradient) {
  const Loss l = Loss::pinball(core::QuantileLevel{0.9});
  // y above prediction: loss = q * (y - yhat), gradient = -q.
  EXPECT_DOUBLE_EQ(l.value(2.0, 1.0), 0.9);
  EXPECT_DOUBLE_EQ(l.gradient(2.0, 1.0), -0.9);
  // y below prediction: loss = (1-q) * (yhat - y), gradient = 1-q.
  EXPECT_DOUBLE_EQ(l.value(1.0, 2.0), 0.1);
  EXPECT_NEAR(l.gradient(1.0, 2.0), 0.1, 1e-12);
  EXPECT_THROW(Loss::pinball(core::QuantileLevel{0.0}), std::invalid_argument);
  EXPECT_THROW(Loss::pinball(core::QuantileLevel{1.0}), std::invalid_argument);
}

TEST(Loss, SquaredGradient) {
  const Loss l = Loss::squared();
  EXPECT_DOUBLE_EQ(l.value(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(l.gradient(3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(l.hessian(3.0, 1.0), 1.0);
}

TEST(LinearRegressor, RecoversCoefficientsNoiseless) {
  const auto p = make_linear_problem(60, 0.0, 1);
  LinearRegressor model;
  model.fit(p.x, p.y);
  const Vector pred = model.predict(p.x);
  EXPECT_GT(stats::r_squared(p.y, pred), 0.999999);
}

TEST(LinearRegressor, GeneralizesUnderNoise) {
  const auto train = make_linear_problem(120, 0.2, 2);
  const auto test = make_linear_problem(80, 0.2, 3);
  LinearRegressor model;
  model.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, model.predict(test.x)), 0.9);
}

TEST(LinearRegressor, ErrorsOnMisuse) {
  LinearRegressor model;
  EXPECT_THROW(model.predict(Matrix(1, 2)), std::logic_error);
  const auto p = make_linear_problem(10, 0.1, 4);
  model.fit(p.x, p.y);
  EXPECT_THROW(model.predict(Matrix(3, 5)), std::invalid_argument);
  EXPECT_THROW(model.fit(Matrix(0, 0), {}), std::invalid_argument);
  EXPECT_THROW(model.fit(p.x, Vector(3)), std::invalid_argument);
}

TEST(LinearRegressor, HandlesCollinearColumns) {
  // Duplicate column: ridge default must keep the solve stable.
  rng::Rng rng(5);
  Matrix x(50, 2);
  Vector y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = x(i, 0);
    y[i] = 3.0 * x(i, 0) + rng.normal(0.0, 0.01);
  }
  LinearRegressor model;
  model.fit(x, y);
  EXPECT_GT(stats::r_squared(y, model.predict(x)), 0.99);
}

TEST(LinearRegressor, QuantileModeMatchesEmpiricalQuantileOnInterceptOnly) {
  // With a constant feature, the pinball minimizer is the empirical
  // q-quantile of y — a closed-form check of the Adam optimizer.
  rng::Rng rng(6);
  const std::size_t n = 300;
  Matrix x(n, 1, 1.0);
  Vector y = rng.normal_vector(n, 0.0, 1.0);
  for (double q : {0.1, 0.5, 0.9}) {
    LinearConfig config;
    config.loss = Loss::pinball(core::QuantileLevel{q});
    LinearRegressor model(config);
    model.fit(x, y);
    const double pred = model.predict(x)[0];
    const double target = stats::quantile_linear(y, q);
    EXPECT_NEAR(pred, target, 0.08) << "q=" << q;
  }
}

TEST(LinearRegressor, QuantileBandsOrdered) {
  const auto p = make_linear_problem(200, 0.5, 7);
  LinearConfig lo_config, hi_config;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.05});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.95});
  LinearRegressor lo(lo_config), hi(hi_config);
  lo.fit(p.x, p.y);
  hi.fit(p.x, p.y);
  const Vector lo_pred = lo.predict(p.x);
  const Vector hi_pred = hi.predict(p.x);
  std::size_t ordered = 0;
  for (std::size_t i = 0; i < p.y.size(); ++i) ordered += lo_pred[i] <= hi_pred[i];
  EXPECT_GT(ordered, p.y.size() * 95 / 100);
  // Roughly 90% of training labels inside the band.
  const double cov = stats::interval_coverage(p.y, lo_pred, hi_pred);
  EXPECT_NEAR(cov, 0.9, 0.07);
}

TEST(LinearRegressor, CloneConfigIsUnfittedSameBehaviour) {
  const auto p = make_linear_problem(50, 0.1, 8);
  LinearRegressor model;
  model.fit(p.x, p.y);
  auto clone = model.clone_config();
  EXPECT_FALSE(clone->fitted());
  clone->fit(p.x, p.y);
  const Vector a = model.predict(p.x);
  const Vector b = clone->predict(p.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-10);
}

TEST(LinearRegressor, RawAffineReproducesPredictExactly) {
  // The exported affine is what an on-chip accelerator would run; it must
  // match predict() on raw (unstandardized) features.
  const auto p = make_linear_problem(80, 0.2, 21);
  LinearRegressor model;
  model.fit(p.x, p.y);
  const auto affine = model.raw_affine();
  ASSERT_EQ(affine.weights.size(), 2u);
  const Vector pred = model.predict(p.x);
  for (std::size_t i = 0; i < p.y.size(); ++i) {
    EXPECT_NEAR(affine.evaluate(p.x.row(i)), pred[i], 1e-9);
  }
  // Recovers the generating coefficients on clean data.
  const auto clean = make_linear_problem(200, 0.0, 22);
  LinearRegressor exact;
  exact.fit(clean.x, clean.y);
  const auto a = exact.raw_affine();
  EXPECT_NEAR(a.weights[0], 2.0, 1e-3);
  EXPECT_NEAR(a.weights[1], -1.0, 1e-3);
  EXPECT_NEAR(a.intercept, 0.5, 1e-3);

  LinearRegressor unfitted;
  EXPECT_THROW(unfitted.raw_affine(), std::logic_error);
  EXPECT_THROW(static_cast<void>(a.evaluate({1.0})), std::invalid_argument);
}

TEST(LinearRegressor, RawAffineWorksForQuantileMode) {
  const auto p = make_linear_problem(200, 0.4, 23);
  LinearConfig config;
  config.loss = Loss::pinball(core::QuantileLevel{0.9});
  LinearRegressor model(config);
  model.fit(p.x, p.y);
  const auto affine = model.raw_affine();
  const Vector pred = model.predict(p.x);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(affine.evaluate(p.x.row(i)), pred[i], 1e-9);
  }
}

TEST(GaussianProcess, InterpolatesSmoothFunction) {
  const std::size_t n = 40;
  Matrix x(n, 1);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / 6.0;
    y[i] = std::sin(x(i, 0));
  }
  GaussianProcessRegressor gp;
  gp.fit(x, y);
  Matrix xq(1, 1);
  xq(0, 0) = 2.05;  // between grid points
  EXPECT_NEAR(gp.predict(xq)[0], std::sin(2.05), 0.05);
}

TEST(GaussianProcess, VarianceGrowsAwayFromData) {
  Matrix x(10, 1);
  Vector y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = std::cos(0.5 * x(i, 0));
  }
  GaussianProcessRegressor gp;
  gp.fit(x, y);
  Matrix near(1, 1), far(1, 1);
  near(0, 0) = 4.5;
  far(0, 0) = 40.0;
  const auto post_near = gp.posterior(near);
  const auto post_far = gp.posterior(far);
  EXPECT_GT(post_far.variance[0], post_near.variance[0]);
}

TEST(GaussianProcess, PicksPlausibleNoise) {
  // Pure noise: the marginal likelihood must prefer a large noise variance
  // and the posterior mean must stay near the sample mean.
  rng::Rng rng(9);
  Matrix x(60, 1);
  Vector y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.normal();
    y[i] = 5.0 + rng.normal();
  }
  GaussianProcessRegressor gp;
  gp.fit(x, y);
  EXPECT_GT(gp.noise_variance(), 0.05);
  Matrix xq(1, 1);
  xq(0, 0) = 0.0;
  EXPECT_NEAR(gp.predict(xq)[0], 5.0, 0.6);
}

TEST(GaussianProcess, PosteriorInLabelUnits) {
  // Labels in volts around 0.55 with mV spread: mean must come back in
  // volts, variance in volts^2.
  rng::Rng rng(10);
  Matrix x(50, 2);
  Vector y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = 0.55 + 0.01 * x(i, 0) + rng.normal(0.0, 0.002);
  }
  GaussianProcessRegressor gp;
  gp.fit(x, y);
  const auto post = gp.posterior(x);
  EXPECT_NEAR(stats::mean(post.mean), 0.55, 0.01);
  for (double v : post.variance) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(std::sqrt(v), 0.05);
  }
}

TEST(Mlp, LearnsNonlinearFunction) {
  rng::Rng rng(11);
  const std::size_t n = 200;
  Matrix x(n, 1);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    y[i] = std::abs(x(i, 0));  // not representable by a linear model
  }
  MlpConfig config;
  config.epochs = 1500;
  config.l2_penalty = 0.001;
  MlpRegressor mlp(config);
  mlp.fit(x, y);
  EXPECT_GT(stats::r_squared(y, mlp.predict(x)), 0.95);
  // Linear baseline for contrast.
  LinearRegressor lr;
  lr.fit(x, y);
  EXPECT_LT(stats::r_squared(y, lr.predict(x)), 0.3);
}

TEST(Mlp, DeterministicInSeed) {
  const auto p = make_linear_problem(60, 0.1, 12);
  MlpConfig config;
  config.epochs = 200;
  MlpRegressor a(config), b(config);
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  const Vector pa = a.predict(p.x), pb = b.predict(p.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Mlp, PinballModeShiftsPredictions) {
  const auto p = make_linear_problem(150, 0.5, 13);
  MlpConfig lo_config, hi_config;
  lo_config.epochs = hi_config.epochs = 800;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.1});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.9});
  MlpRegressor lo(lo_config), hi(hi_config);
  lo.fit(p.x, p.y);
  hi.fit(p.x, p.y);
  const double mean_lo = stats::mean(lo.predict(p.x));
  const double mean_hi = stats::mean(hi.predict(p.x));
  EXPECT_LT(mean_lo, mean_hi);
}

TEST(Mlp, ValidatesConfig) {
  MlpConfig bad;
  bad.hidden_units = 0;
  EXPECT_THROW(MlpRegressor{bad}, std::invalid_argument);
  MlpConfig bad2;
  bad2.epochs = 0;
  EXPECT_THROW(MlpRegressor{bad2}, std::invalid_argument);
}

TEST(Mlp, FitRejectsNonFiniteInputsInEveryBuildType) {
  // The training epoch's gemm_at needs a finite design, so fit refuses a
  // NaN or infinite feature or label in plain Release too, not only where
  // the contract tier's finite scans are compiled in.
  const auto clean = make_linear_problem(40, 0.1, 14);
  MlpConfig config;
  config.epochs = 5;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const bool in_label : {true, false}) {
      LinearProblem poisoned = clean;
      (in_label ? poisoned.y[17] : poisoned.x(17, 1)) = bad;
      MlpRegressor mlp(config);
      EXPECT_THROW(mlp.fit(poisoned.x, poisoned.y), core::contract_violation)
          << bad << (in_label ? " in the label" : " in a feature");
      EXPECT_FALSE(mlp.fitted());
    }
  }

  // Finite values near the double range overflow the scalers' sums, so the
  // standardised column is NaN although every input is finite.
  rng::Rng rng(15);
  for (const bool in_label : {true, false}) {
    LinearProblem huge = clean;
    for (std::size_t i = 0; i < huge.y.size(); ++i) {
      (in_label ? huge.y[i] : huge.x(i, 1)) = rng.uniform(5e307, 1e308);
    }
    MlpRegressor mlp(config);
    EXPECT_THROW(mlp.fit(huge.x, huge.y), core::contract_violation)
        << (in_label ? "overflowing label" : "overflowing feature");
    EXPECT_FALSE(mlp.fitted());
  }

  // A rejected refit keeps the earlier fit: same predictions, bit for bit.
  MlpRegressor mlp(config);
  mlp.fit(clean.x, clean.y);
  const Vector before = mlp.predict(clean.x);
  LinearProblem poisoned = clean;
  poisoned.x(17, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(mlp.fit(poisoned.x, poisoned.y), core::contract_violation);
  const Vector after = mlp.predict(clean.x);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << i;
  }
}

TEST(Factory, NamesAndZoos) {
  EXPECT_EQ(model_name(ModelKind::kLinear), "Linear Regression");
  EXPECT_EQ(model_name(ModelKind::kCatboost), "CatBoost");
  EXPECT_EQ(point_model_zoo().size(), 5u);
  EXPECT_EQ(quantile_model_zoo().size(), 4u);
}

TEST(Factory, GpRejectsPinball) {
  EXPECT_THROW(make_point_regressor(ModelKind::kGp, Loss::pinball(core::QuantileLevel{0.5})),
               std::invalid_argument);
}

TEST(Factory, QuantilePairWiring) {
  auto pair = make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.2});
  EXPECT_EQ(pair->name(), "QR Linear Regression");
  EXPECT_DOUBLE_EQ(pair->alpha(), 0.2);
  EXPECT_THROW(make_quantile_pair(ModelKind::kLinear, core::MiscoverageAlpha{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vmincqr::models
