// Integration tests: the full pipeline on a reduced chip population,
// verifying the qualitative structure of the paper's results end to end —
// point-prediction quality (Fig. 2), CQR calibration (Table III), and the
// on-chip monitor benefit (Table IV) — at test-suite-friendly sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/experiment.hpp"
#include "silicon/dataset_gen.hpp"

namespace vmincqr::core {
namespace {

// Reduced experiment: fewer parametric features and monitors, default chip
// count, cheap model settings via the standard config.
silicon::GeneratorConfig integration_config() {
  silicon::GeneratorConfig config;
  config.n_chips = 120;
  config.parametric.features_per_temperature = 80;
  config.monitors.n_rod = 24;
  config.monitors.n_cpd = 4;
  return config;
}

ExperimentConfig cheap_experiment() {
  ExperimentConfig config;
  config.pipeline.tree_prefilter = 24;
  return config;
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generated_ = new silicon::GeneratedDataset(
        silicon::generate_dataset(integration_config()));
  }
  static void TearDownTestSuite() {
    delete generated_;
    generated_ = nullptr;
  }
  static const data::Dataset& dataset() { return generated_->dataset; }
  static silicon::GeneratedDataset* generated_;
};

silicon::GeneratedDataset* IntegrationFixture::generated_ = nullptr;

TEST_F(IntegrationFixture, LinearPointPredictionIsStrongAtTime0) {
  const Scenario s{0.0, 25.0, FeatureSet::kBoth};
  const auto scores = evaluate_point_models(
      dataset(), s, cheap_experiment(), {models::ModelKind::kLinear});
  ASSERT_EQ(scores.size(), 1u);
  // The generator's Vmin is largely linear in the latents the features
  // expose; LR with CFS should explain most of the variance.
  EXPECT_GT(scores[0].r2, 0.6);
  EXPECT_LT(scores[0].rmse, 0.02);  // < 20 mV
  EXPECT_GE(scores[0].best_k, 1u);
  EXPECT_LE(scores[0].best_k, 10u);
}

TEST_F(IntegrationFixture, DegradationPredictionStaysAccurate) {
  // Paper Sec. IV-D: no clear R^2 reduction out to 1008 h because monitors
  // track the aging state.
  const Scenario late{1008.0, 25.0, FeatureSet::kBoth};
  const auto scores = evaluate_point_models(
      dataset(), late, cheap_experiment(), {models::ModelKind::kLinear});
  EXPECT_GT(scores[0].r2, 0.5);
}

TEST_F(IntegrationFixture, CqrCoversWhereQrFallsShort) {
  const Scenario s{24.0, 25.0, FeatureSet::kBoth};
  const auto config = cheap_experiment();

  const RegionMethodSpec qr{RegionMethodSpec::Family::kQr,
                            models::ModelKind::kLinear};
  const RegionMethodSpec cqr{RegionMethodSpec::Family::kCqr,
                             models::ModelKind::kLinear};
  const auto qr_score = evaluate_region_method(dataset(), s, qr, config);
  const auto cqr_score = evaluate_region_method(dataset(), s, cqr, config);

  // CQR must reach (near) the 90% target; raw QR typically does not.
  EXPECT_GE(cqr_score.coverage_pct, 85.0);
  EXPECT_GE(cqr_score.coverage_pct, qr_score.coverage_pct - 1.0);
  // Interval lengths are in the paper's range (a few mV to ~100 mV).
  EXPECT_GT(cqr_score.mean_length_mv, 1.0);
  EXPECT_LT(cqr_score.mean_length_mv, 150.0);
}

TEST_F(IntegrationFixture, OnChipMonitorsShrinkIntervals) {
  // Table IV story at one scenario: degradation prediction with monitors
  // beats parametric-only.
  const auto config = cheap_experiment();
  const RegionMethodSpec cqr_cb{RegionMethodSpec::Family::kCqr,
                                models::ModelKind::kCatboost};
  const Scenario with_monitors{504.0, 125.0, FeatureSet::kBoth};
  const Scenario par_only{504.0, 125.0, FeatureSet::kParametricOnly};
  const auto with_score =
      evaluate_region_method(dataset(), with_monitors, cqr_cb, config);
  const auto par_score =
      evaluate_region_method(dataset(), par_only, cqr_cb, config);
  EXPECT_LT(with_score.mean_length_mv, par_score.mean_length_mv);
}

TEST_F(IntegrationFixture, AllTable3MethodsRunAtOneScenario) {
  const Scenario s{0.0, 125.0, FeatureSet::kBoth};
  const auto scores = evaluate_region_methods(dataset(), s, cheap_experiment());
  ASSERT_EQ(scores.size(), 9u);
  for (const auto& score : scores) {
    EXPECT_GE(score.coverage_pct, 0.0);
    EXPECT_LE(score.coverage_pct, 100.0);
    EXPECT_GE(score.mean_length_mv, 0.0) << score.method;
  }
  // Every CQR variant respects (near-)target coverage.
  for (const auto& score : scores) {
    if (score.method.rfind("CQR", 0) == 0) {
      EXPECT_GE(score.coverage_pct, 82.0) << score.method;
    }
  }
  // Every row's numbers, bit for bit: a 64-bit FNV-1a digest over the
  // little-endian bytes of each mean_length_mv, then coverage_pct, in
  // table3_methods() order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& score : scores) {
    for (const double value : {score.mean_length_mv, score.coverage_pct}) {
      const auto bits = std::bit_cast<std::uint64_t>(value);
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (bits >> (8 * byte)) & 0xFFU;
        digest *= 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(digest, 0x5a81613326f112f3ULL)
      << "Table III digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace vmincqr::core
