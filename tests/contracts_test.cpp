// Contract-layer tests: the boundary checks that keep CQR's statistical
// guarantee attached to what the binary actually computes.
//
// Cheap tier (REQUIRE / ENSURE / CHECK_SHAPE) is always on and is tested
// unconditionally. The expensive tier (CHECK_FINITE / AUDIT) is compiled out
// in plain Release, so those tests GTEST_SKIP when contracts_enabled() is
// false instead of failing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "conformal/cqr.hpp"
#include "core/contracts.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "models/factory.hpp"
#include "conformal/normalized.hpp"
#include "core/units.hpp"
#include "data/scaler.hpp"
#include "models/linear.hpp"
#include "models/region.hpp"

namespace {

using vmincqr::core::contract_violation;
using vmincqr::core::contracts_enabled;
using vmincqr::linalg::Matrix;
using vmincqr::linalg::Vector;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Matrix make_design(std::size_t n, std::size_t d = 2) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = 0.1 * static_cast<double>(i + 1) +
                0.01 * static_cast<double>(j);
    }
  }
  return x;
}

Vector make_labels(std::size_t n) {
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 0.6 + 0.05 * static_cast<double>(i % 7);
  }
  return y;
}

TEST(Contracts, ViolationDerivesFromStdInvalidArgument) {
  // Pre-contract call sites catch std::invalid_argument / std::logic_error;
  // the hierarchy guarantees they keep working.
  try {
    vmincqr::core::fail_contract("precondition", "x > 0", "test_fn", "boom");
    FAIL() << "fail_contract returned";
  } catch (const contract_violation& e) {
    EXPECT_EQ(e.kind(), "precondition");
    EXPECT_EQ(e.expression(), "x > 0");
    EXPECT_EQ(e.function(), "test_fn");
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_THROW(
      vmincqr::core::fail_contract("shape", "", "f", "m"),
      std::invalid_argument);
  EXPECT_THROW(
      vmincqr::core::fail_contract("shape", "", "f", "m"), std::logic_error);
}

TEST(Contracts, AllFiniteScansCorrectly) {
  Vector clean{0.0, -1.5, 3.0e100};
  EXPECT_TRUE(vmincqr::core::all_finite(clean));
  Vector with_nan{0.0, kNaN};
  EXPECT_FALSE(vmincqr::core::all_finite(with_nan));
  Vector with_inf{std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(vmincqr::core::all_finite(with_inf));
  EXPECT_TRUE(vmincqr::core::all_finite(nullptr, 0));
}

TEST(Contracts, MatmulShapeMismatchNamesTheContract) {
  const Matrix a(2, 3, 1.0);
  const Matrix b(4, 2, 1.0);
  try {
    (void)vmincqr::linalg::matmul(a, b);
    FAIL() << "matmul accepted mismatched inner dimensions";
  } catch (const contract_violation& e) {
    EXPECT_EQ(e.kind(), "shape");
  }
}

TEST(Contracts, FitRejectsRowLabelMismatch) {
  auto model =
      vmincqr::models::make_point_regressor(vmincqr::models::ModelKind::kLinear);
  const Matrix x = make_design(10);
  const Vector y = make_labels(7);
  EXPECT_THROW(model->fit(x, y), contract_violation);
}

TEST(Contracts, FitRejectsNaNLabels) {
  if (!contracts_enabled()) {
    GTEST_SKIP() << "finite scans compiled out (Release, contracts off)";
  }
  auto model =
      vmincqr::models::make_point_regressor(vmincqr::models::ModelKind::kLinear);
  const Matrix x = make_design(10);
  Vector y = make_labels(10);
  y[4] = kNaN;
  try {
    model->fit(x, y);
    FAIL() << "fit accepted a NaN label";
  } catch (const contract_violation& e) {
    EXPECT_EQ(e.kind(), "finite");
    // The diagnostic names the offending index so the bad sample is
    // identifiable from the report alone.
    EXPECT_NE(std::string(e.what()).find("index 4"), std::string::npos);
  }
}

TEST(Contracts, FitRejectsNaNDesignMatrix) {
  if (!contracts_enabled()) {
    GTEST_SKIP() << "finite scans compiled out (Release, contracts off)";
  }
  auto model =
      vmincqr::models::make_point_regressor(vmincqr::models::ModelKind::kLinear);
  Matrix x = make_design(10);
  x(3, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(model->fit(x, make_labels(10)), contract_violation);
}

TEST(Contracts, PredictRejectsFeatureCountMismatch) {
  auto model =
      vmincqr::models::make_point_regressor(vmincqr::models::ModelKind::kLinear);
  model->fit(make_design(10, 2), make_labels(10));
  EXPECT_THROW((void)model->predict(make_design(5, 3)), contract_violation);
}

class CqrContracts : public ::testing::Test {
 protected:
  static std::unique_ptr<vmincqr::conformal::ConformalizedQuantileRegressor>
  make_cqr(vmincqr::core::MiscoverageAlpha alpha =
               vmincqr::core::MiscoverageAlpha{0.1}) {
    return std::make_unique<
        vmincqr::conformal::ConformalizedQuantileRegressor>(
        alpha, vmincqr::models::make_quantile_pair(
                   vmincqr::models::ModelKind::kLinear, alpha));
  }
};

TEST_F(CqrContracts, RejectsEmptyCalibrationSet) {
  auto cqr = make_cqr();
  const Matrix x_train = make_design(20);
  const Vector y_train = make_labels(20);
  const Matrix x_calib(0, 2);
  const Vector y_calib;
  EXPECT_THROW(cqr->fit_with_split(x_train, y_train, x_calib, y_calib),
               contract_violation);
}

TEST_F(CqrContracts, RejectsCalibrationShapeMismatch) {
  auto cqr = make_cqr();
  EXPECT_THROW(cqr->fit_with_split(make_design(20), make_labels(20),
                                   make_design(8), make_labels(5)),
               contract_violation);
}

TEST_F(CqrContracts, RejectsNaNCalibrationLabels) {
  // Contract builds stop a NaN or infinite label at the finite scan; plain
  // Release, where that scan compiles out, at the always-on score scan in
  // stats::conformal_quantile.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, inf, -inf}) {
    auto cqr = make_cqr();
    Vector y_calib = make_labels(8);
    y_calib[2] = bad;
    try {
      cqr->fit_with_split(make_design(20), make_labels(20), make_design(8),
                          y_calib);
      ADD_FAILURE() << "calibration accepted a " << bad << " label";
    } catch (const contract_violation& e) {
      if (contracts_enabled()) {
        EXPECT_EQ(e.kind(), "finite") << bad;
      }
    }
  }
}

TEST_F(CqrContracts, RejectsNaNTrainingLabelsViaFit) {
  if (!contracts_enabled()) {
    GTEST_SKIP() << "finite scans compiled out (Release, contracts off)";
  }
  auto cqr = make_cqr();
  Vector y = make_labels(40);
  y[17] = kNaN;
  EXPECT_THROW(cqr->fit(make_design(40), y), contract_violation);
}

TEST_F(CqrContracts, CleanFitStillWorksUnderContracts) {
  // The contract layer must be invisible on well-formed input: a normal
  // fit/predict round-trip yields ordered finite bands.
  auto cqr = make_cqr();
  cqr->fit(make_design(60), make_labels(60));
  const auto band = cqr->predict_interval(make_design(10));
  ASSERT_EQ(band.lower.size(), 10u);
  ASSERT_EQ(band.upper.size(), 10u);
  for (std::size_t i = 0; i < band.lower.size(); ++i) {
    EXPECT_TRUE(std::isfinite(band.lower[i]));
    EXPECT_TRUE(std::isfinite(band.upper[i]));
    EXPECT_LE(band.lower[i], band.upper[i]);
  }
}

// --- regressions for entry points the domain linter found unguarded --------

TEST(Contracts, GpIntervalFitRejectsRowLabelMismatch) {
  vmincqr::models::GpIntervalRegressor gp(
      vmincqr::core::MiscoverageAlpha{0.1}, {});
  EXPECT_THROW(gp.fit(make_design(6), make_labels(5)), contract_violation);
  EXPECT_THROW(gp.fit(Matrix(0, 2), Vector{}), contract_violation);
}

TEST(Contracts, QuantilePairFitRejectsRowLabelMismatch) {
  vmincqr::models::QuantilePairRegressor qp(
      vmincqr::core::MiscoverageAlpha{0.1},
      std::make_unique<vmincqr::models::LinearRegressor>(),
      std::make_unique<vmincqr::models::LinearRegressor>(), "qp");
  EXPECT_THROW(qp.fit(make_design(6), make_labels(4)), contract_violation);
}

TEST(Contracts, ScalerFitTransformRejectsEmptyMatrix) {
  vmincqr::data::StandardScaler scaler;
  EXPECT_THROW(static_cast<void>(scaler.fit_transform(Matrix(0, 0))),
               contract_violation);
}

namespace {
// A sigma model that returns NaN "difficulty" estimates: max(NaN, floor)
// keeps the NaN, so only the predict_sigma ENSURE can stop it from
// poisoning normalized calibration.
class NanSigmaModel final : public vmincqr::models::Regressor {
 public:
  void fit(const Matrix&, const Vector&) override { fitted_ = true; }
  Vector predict(const Matrix& x) const override {
    return Vector(x.rows(), kNaN);
  }
  std::unique_ptr<vmincqr::models::Regressor> clone_config() const override {
    return std::make_unique<NanSigmaModel>();
  }
  std::string name() const override { return "NaN sigma"; }
  bool fitted() const override { return fitted_; }

 private:
  bool fitted_ = false;
};
}  // namespace

TEST(Contracts, NormalizedCpRejectsNonFiniteSigmaEstimates) {
  vmincqr::conformal::NormalizedConformalRegressor ncp(
      vmincqr::core::MiscoverageAlpha{0.1},
      std::make_unique<vmincqr::models::LinearRegressor>(),
      std::make_unique<NanSigmaModel>());
  EXPECT_THROW(ncp.fit(make_design(24), make_labels(24)), contract_violation);
}

}  // namespace
