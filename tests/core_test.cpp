// Tests for the core pipeline layer: scenarios, feature assembly, model-
// specific selection, report rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "parallel/thread_pool.hpp"
#include "silicon/dataset_gen.hpp"

namespace vmincqr::core {
namespace {

silicon::GeneratorConfig small_config() {
  silicon::GeneratorConfig config;
  config.n_chips = 40;
  config.parametric.features_per_temperature = 30;
  config.monitors.n_rod = 8;
  config.monitors.n_cpd = 2;
  return config;
}

TEST(Scenario, Time0UsesOnlyTime0Features) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario s{0.0, 25.0, FeatureSet::kBoth};
  const auto cols = scenario_feature_columns(generated.dataset, s);
  for (auto c : cols) {
    EXPECT_DOUBLE_EQ(generated.dataset.feature_info(c).read_point_hours, 0.0);
  }
  // 90 parametric + 10 monitors at t=0.
  EXPECT_EQ(cols.size(), 90u + 10u);
}

TEST(Scenario, LaterReadPointsAccumulateMonitorHistory) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario s48{48.0, 25.0, FeatureSet::kBoth};
  const auto cols = scenario_feature_columns(generated.dataset, s48);
  // parametric(t0) + monitors at t in {0, 24, 48}.
  EXPECT_EQ(cols.size(), 90u + 10u * 3u);
  // No future leakage: nothing beyond 48 h.
  for (auto c : cols) {
    EXPECT_LE(generated.dataset.feature_info(c).read_point_hours, 48.0);
  }
}

TEST(Scenario, FeatureSetFilters) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario par_only{24.0, 25.0, FeatureSet::kParametricOnly};
  const Scenario chip_only{24.0, 25.0, FeatureSet::kOnChipOnly};
  const auto par_cols =
      scenario_feature_columns(generated.dataset, par_only);
  const auto chip_cols =
      scenario_feature_columns(generated.dataset, chip_only);
  EXPECT_EQ(par_cols.size(), 90u);
  EXPECT_EQ(chip_cols.size(), 10u * 2u);  // t in {0, 24}
  for (auto c : par_cols) {
    EXPECT_EQ(generated.dataset.feature_info(c).type,
              data::FeatureType::kParametric);
  }
  for (auto c : chip_cols) {
    EXPECT_NE(generated.dataset.feature_info(c).type,
              data::FeatureType::kParametric);
  }
}

TEST(Scenario, NegativeReadPointThrows) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario bad{-1.0, 25.0, FeatureSet::kBoth};
  EXPECT_THROW(scenario_feature_columns(generated.dataset, bad),
               std::invalid_argument);
}

TEST(Scenario, DescribeIsReadable) {
  const Scenario s{168.0, -45.0, FeatureSet::kParametricOnly};
  EXPECT_EQ(describe(s), "t=168h, T=-45C, features=parametric");
}

TEST(Pipeline, AssembleScenarioShapes) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario s{24.0, 125.0, FeatureSet::kBoth};
  const auto data = assemble_scenario(generated.dataset, s);
  EXPECT_EQ(data.x.rows(), 40u);
  EXPECT_EQ(data.x.cols(), data.columns.size());
  EXPECT_EQ(data.y.size(), 40u);
  // Labels are the 125C series at 24h.
  EXPECT_EQ(data.y, generated.dataset.label(24.0, 125.0).values);
}

TEST(Pipeline, SelectFeaturesRespectsModelFamily) {
  const auto generated = silicon::generate_dataset(small_config());
  const Scenario s{0.0, 25.0, FeatureSet::kBoth};
  const auto data = assemble_scenario(generated.dataset, s);
  PipelineConfig config;
  config.tree_prefilter = 20;
  const auto cfs = select_features_for_model(
      data.x, data.y, models::ModelKind::kLinear, config, 5);
  EXPECT_LE(cfs.size(), 5u);
  const auto tree = select_features_for_model(
      data.x, data.y, models::ModelKind::kXgboost, config, 5);
  EXPECT_EQ(tree.size(), 20u);
}

TEST(Pipeline, SweepsAreClippedToBudget) {
  PipelineConfig config;
  config.cfs_max_features = 6;
  const auto sweep = cfs_sweep_for_model(models::ModelKind::kLinear, config);
  for (auto k : sweep) EXPECT_LE(k, 6u);
  EXPECT_FALSE(sweep.empty());
}

TEST(Pipeline, FitScreenInParallelMapMatchesSequentialBytes) {
  // fit_screen shares no mutable state between calls, so fits running
  // concurrently on pool lanes encode exactly the bundles that fits run one
  // after another do.
  const auto generated = silicon::generate_dataset(small_config());
  const std::vector<std::pair<Scenario, models::ModelKind>> cases = {
      {{0.0, 25.0, FeatureSet::kBoth}, models::ModelKind::kLinear},
      {{24.0, 125.0, FeatureSet::kBoth}, models::ModelKind::kCatboost},
      {{48.0, 25.0, FeatureSet::kBoth}, models::ModelKind::kMlp},
      {{24.0, 25.0, FeatureSet::kParametricOnly}, models::ModelKind::kXgboost}};
  const PipelineConfig config;
  const auto encoded = [&](std::size_t i) {
    const auto& [scenario, kind] = cases[i];
    const auto data = assemble_scenario(generated.dataset, scenario);
    return artifact::encode_bundle(
        make_screen_bundle(scenario, data, fit_screen(data, kind, config, 4)));
  };
  std::vector<std::vector<std::uint8_t>> sequential;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    sequential.push_back(encoded(i));
  }
  for (const std::size_t width : {2, 8}) {
    parallel::set_max_threads(width);
    const auto concurrent =
        parallel_map<std::vector<std::uint8_t>>(cases.size(), encoded);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_TRUE(concurrent[i] == sequential[i])
          << "case " << i << " differs at width " << width;
    }
  }
  parallel::set_max_threads(0);
}

TEST(Experiment, Table3MethodsRoster) {
  const auto methods = table3_methods();
  ASSERT_EQ(methods.size(), 9u);
  EXPECT_EQ(methods[0].label(), "GP");
  EXPECT_EQ(methods[1].label(), "QR Linear Regression");
  EXPECT_EQ(methods[5].label(), "CQR Linear Regression");
  EXPECT_EQ(methods[8].label(), "CQR CatBoost");
}

TEST(Experiment, ParallelMapPreservesOrder) {
  const auto out = parallel_map<std::size_t>(
      20, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Report, TableRendering) {
  TextTable table({"Method", "Length", "Coverage"});
  table.add_row({"CQR LR", "17.37", "95.51"});
  table.add_row({"GP", "48.56", "93.59"});
  const std::string s = table.to_string();
  EXPECT_NE(s.find("| Method"), std::string::npos);
  EXPECT_NE(s.find("| CQR LR"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(table.n_rows(), 2u);
  EXPECT_THROW(table.add_row({"too", "few"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Report, FormatDouble) {
  EXPECT_EQ(format_double(12.3456, 2), "12.35");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(3.0, 0), "3");
}

}  // namespace
}  // namespace vmincqr::core
