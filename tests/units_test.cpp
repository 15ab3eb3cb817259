// Boundary tests for the strong unit/level types (core/units.hpp): the
// validated constructors must reject every degenerate encoding (endpoints,
// NaN, infinities, denormals) and must pass interior values through the
// conformal stack bit-exactly — the CQR quantile index ceil((M+1)(1-alpha))
// is only trustworthy if alpha arrives unmodified.
#include "core/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <type_traits>

#include "conformal/split_cp.hpp"
#include "models/linear.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
constexpr double kSmallestNormal = std::numeric_limits<double>::min();

// --- compile-time conversion rules -----------------------------------------

// Bare doubles cannot bind to level parameters, and the two level types do
// not interconvert — a swapped tau/alpha is a compile error.
static_assert(!std::is_convertible_v<double, QuantileLevel>);
static_assert(!std::is_convertible_v<double, MiscoverageAlpha>);
static_assert(!std::is_convertible_v<QuantileLevel, MiscoverageAlpha>);
static_assert(!std::is_convertible_v<MiscoverageAlpha, QuantileLevel>);
static_assert(!std::is_convertible_v<Volt, Millivolt>);
static_assert(!std::is_convertible_v<Millivolt, Volt>);
// Index tags are fully opaque: no implicit conversion even to size_t.
static_assert(!std::is_convertible_v<ChipId, std::size_t>);
// Conversion *to* double is implicit so values flow into numeric kernels.
static_assert(std::is_convertible_v<QuantileLevel, double>);
static_assert(std::is_convertible_v<MiscoverageAlpha, double>);

// --- rejection boundaries ---------------------------------------------------

TEST(UnitsBoundary, QuantileLevelRejectsClosedEndpoints) {
  EXPECT_THROW(QuantileLevel{0.0}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{1.0}, std::invalid_argument);
}

TEST(UnitsBoundary, QuantileLevelRejectsOutOfRangeAndNonFinite) {
  EXPECT_THROW(QuantileLevel{-0.1}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{1.2}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{kNan}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{kInf}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{-kInf}, std::invalid_argument);
}

TEST(UnitsBoundary, QuantileLevelRejectsDenormals) {
  EXPECT_THROW(QuantileLevel{kDenorm}, std::invalid_argument);
  EXPECT_THROW(QuantileLevel{1e-320}, std::invalid_argument);
}

TEST(UnitsBoundary, QuantileLevelAcceptsSmallestNormal) {
  const QuantileLevel tau{kSmallestNormal};
  EXPECT_EQ(tau.value(), kSmallestNormal);
}

TEST(UnitsBoundary, MiscoverageAlphaRejectsSameBoundariesAsQuantileLevel) {
  EXPECT_THROW(MiscoverageAlpha{0.0}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{1.0}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{-0.05}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{1.5}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{kNan}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{kInf}, std::invalid_argument);
  EXPECT_THROW(MiscoverageAlpha{kDenorm}, std::invalid_argument);
  EXPECT_EQ(MiscoverageAlpha{kSmallestNormal}.value(), kSmallestNormal);
}

TEST(UnitsBoundary, PhysicalQuantitiesRejectNonFinite) {
  EXPECT_THROW(Volt{kNan}, std::invalid_argument);
  EXPECT_THROW(Millivolt{kInf}, std::invalid_argument);
  EXPECT_THROW(Celsius{kNan}, std::invalid_argument);
  EXPECT_THROW(Celsius{-300.0}, std::invalid_argument);  // below absolute zero
  EXPECT_THROW(Hours{-1.0}, std::invalid_argument);
  EXPECT_THROW(Hours{kNan}, std::invalid_argument);
}

// --- interior values are preserved bit-exactly ------------------------------

TEST(UnitsBoundary, InteriorLevelsRoundTripUnchanged) {
  for (const double tau : {0.005, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    EXPECT_EQ(QuantileLevel{tau}.value(), tau);
    EXPECT_EQ(static_cast<double>(QuantileLevel{tau}), tau);
    EXPECT_EQ(MiscoverageAlpha{tau}.value(), tau);
  }
}

TEST(UnitsBoundary, AlphaTauArithmeticIsExactForDyadicAlpha) {
  const MiscoverageAlpha alpha{0.25};  // dyadic: /2 and 1-x are exact
  EXPECT_EQ(alpha.coverage(), 0.75);
  EXPECT_EQ(alpha.lower_tau().value(), 0.125);
  EXPECT_EQ(alpha.upper_tau().value(), 0.875);
  EXPECT_EQ(alpha.halved().value(), 0.125);
  EXPECT_EQ(QuantileLevel{0.125}.complement().value(), 0.875);
}

TEST(UnitsBoundary, AlphaSurvivesConformalQuantileUnchanged) {
  // M = 9 scores, alpha = 0.2: ceil((9+1) * 0.8) = 8 -> 8th smallest.
  // Any perturbation of alpha on the way in would move the index.
  std::vector<double> scores{9.0, 1.0, 3.0, 7.0, 5.0, 2.0, 8.0, 4.0, 6.0};
  EXPECT_EQ(stats::conformal_quantile(scores, MiscoverageAlpha{0.2}), 8.0);
}

TEST(UnitsBoundary, AlphaRoundTripsThroughSplitCpCalibration) {
  linalg::Matrix x(40, 1);
  linalg::Vector y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = 2.0 * x(i, 0) + (i % 2 == 0 ? 0.1 : -0.1);
  }
  conformal::SplitConformalRegressor cp(
      MiscoverageAlpha{0.25}, std::make_unique<models::LinearRegressor>());
  cp.fit(x, y);
  EXPECT_EQ(cp.alpha().value(), 0.25);  // bit-exact through fit+calibrate
  const auto band = cp.predict_interval(x);
  ASSERT_EQ(band.lower.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_LE(band.lower[i], band.upper[i]);
  }
}

TEST(UnitsBoundary, VoltageConversionsAreExact) {
  EXPECT_EQ(Volt{0.72}.to_millivolts().value(), 720.0);
  EXPECT_EQ(Millivolt{720.0}.to_volts().value(), 0.72);
  EXPECT_EQ(Millivolt{-15.0}.value(), -15.0);  // guard bands may be negative
}

TEST(UnitsBoundary, IndexTagsCompare) {
  EXPECT_LT(ChipId{3}, ChipId{5});
  EXPECT_EQ(ChipId{2}.value(), 2u);
}

}  // namespace
}  // namespace vmincqr::core
