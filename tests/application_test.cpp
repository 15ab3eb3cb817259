// Tests for the application layer: interval and point screening against
// min_spec, with overkill / underkill accounting and guard-band calibration.
#include <gtest/gtest.h>

#include "core/screening.hpp"

namespace vmincqr::core {
namespace {

TEST(Screening, IntervalRuleDecisions) {
  const Volt spec{0.65};
  EXPECT_EQ(screen_interval(0.50, 0.60, spec), ScreenDecision::kPass);
  EXPECT_EQ(screen_interval(0.66, 0.70, spec), ScreenDecision::kFail);
  EXPECT_EQ(screen_interval(0.60, 0.70, spec), ScreenDecision::kRetest);
  // Boundary: upper exactly at spec passes; lower exactly at spec retests.
  EXPECT_EQ(screen_interval(0.60, 0.65, spec), ScreenDecision::kPass);
  EXPECT_EQ(screen_interval(0.65, 0.70, spec), ScreenDecision::kRetest);
  EXPECT_THROW(screen_interval(0.7, 0.6, spec), std::invalid_argument);
}

TEST(Screening, PointRuleDecisions) {
  const Volt spec{0.65};
  EXPECT_EQ(screen_point(0.60, Millivolt{20.0}, spec), ScreenDecision::kPass);
  EXPECT_EQ(screen_point(0.64, Millivolt{20.0}, spec), ScreenDecision::kFail);
  EXPECT_THROW(screen_point(0.6, Millivolt{-10.0}, spec),
               std::invalid_argument);
}

TEST(Screening, GuardBandUnitsAreMillivolts) {
  // A 20 mV guard band shifts the effective limit by 0.020 V, not by 20 V:
  // prediction 0.64 + 0.020 exceeds the 0.655 V spec.
  EXPECT_EQ(screen_point(0.64, Millivolt{20.0}, Volt{0.655}),
            ScreenDecision::kFail);
  EXPECT_EQ(screen_point(0.63, Millivolt{20.0}, Volt{0.655}),
            ScreenDecision::kPass);
  EXPECT_DOUBLE_EQ(Millivolt{20.0}.to_volts().value(), 0.020);
  EXPECT_DOUBLE_EQ(Volt{0.655}.to_millivolts().value(), 655.0);
}

TEST(Screening, BatchAccounting) {
  //            chip:      A      B      C      D
  const Vector truth = {0.60, 0.70, 0.60, 0.70};
  const Vector lower = {0.55, 0.55, 0.66, 0.60};
  const Vector upper = {0.62, 0.62, 0.70, 0.70};
  // min_spec 0.65: A pass(good), B pass(bad->underkill),
  // C fail(good->overkill), D retest.
  const auto report = screen_batch_interval(truth, lower, upper, Volt{0.65});
  EXPECT_EQ(report.n_pass, 2u);
  EXPECT_EQ(report.n_fail, 1u);
  EXPECT_EQ(report.n_retest, 1u);
  EXPECT_EQ(report.n_underkill, 1u);
  EXPECT_EQ(report.n_overkill, 1u);
  EXPECT_EQ(report.n_truly_bad, 2u);
  EXPECT_DOUBLE_EQ(report.retest_rate(), 0.25);
  EXPECT_DOUBLE_EQ(report.underkill_rate(), 0.5);
  EXPECT_DOUBLE_EQ(report.overkill_rate(), 0.5);
}

TEST(Screening, BatchValidation) {
  EXPECT_THROW(screen_batch_interval({}, {}, {}, Volt{0.5}),
               std::invalid_argument);
  EXPECT_THROW(screen_batch_interval({1.0}, {1.0, 2.0}, {1.0}, Volt{0.5}),
               std::invalid_argument);
}

TEST(Screening, GuardBandCalibration) {
  // Predictions systematically 30 mV below truth: need >= 0.03 guard band
  // to eliminate underkill.
  Vector truth, pred;
  for (int i = 0; i < 50; ++i) {
    truth.push_back(0.60 + 0.002 * i);
    pred.push_back(truth.back() - 0.03);
  }
  const Millivolt guard = calibrate_guard_band(
      truth, pred, Volt{0.65},
      {Millivolt{0.0}, Millivolt{10.0}, Millivolt{20.0}, Millivolt{30.0},
       Millivolt{50.0}},
      0.0);
  EXPECT_DOUBLE_EQ(guard.value(), 30.0);
  EXPECT_THROW(calibrate_guard_band(truth, pred, Volt{0.65}, {}, 0.0),
               std::invalid_argument);
}

TEST(Screening, DecisionToString) {
  EXPECT_EQ(to_string(ScreenDecision::kPass), "pass");
  EXPECT_EQ(to_string(ScreenDecision::kFail), "fail");
  EXPECT_EQ(to_string(ScreenDecision::kRetest), "retest");
}

}  // namespace
}  // namespace vmincqr::core
