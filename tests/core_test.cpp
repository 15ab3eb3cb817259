// Tests for the core pipeline layer: scenarios (including the forecasting
// horizon), feature assembly, model-specific selection, fit_screen's input
// contract, report rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "core/contracts.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "data/split.hpp"
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

TEST(ForecastScenario, HorizonRestrictsMonitorHistory) {
  silicon::GeneratorConfig config;
  config.n_chips = 20;
  config.parametric.features_per_temperature = 10;
  config.monitors.n_rod = 4;
  config.monitors.n_cpd = 1;
  const auto generated = silicon::generate_dataset(config);

  // Label at 1008 h, monitors only up to 168 h.
  const Scenario forecast{1008.0, 25.0, FeatureSet::kBoth, 168.0};
  const auto cols = scenario_feature_columns(generated.dataset, forecast);
  for (auto c : cols) {
    EXPECT_LE(generated.dataset.feature_info(c).read_point_hours, 168.0);
  }
  // Default horizon = the label read point: strictly more columns.
  const Scenario nowcast{1008.0, 25.0, FeatureSet::kBoth};
  EXPECT_GT(scenario_feature_columns(generated.dataset, nowcast).size(),
            cols.size());
  EXPECT_NE(describe(forecast).find("monitors<=168h"), std::string::npos);
}

TEST(ForecastScenario, LabelsStillComeFromTheTargetReadPoint) {
  silicon::GeneratorConfig config;
  config.n_chips = 12;
  config.parametric.features_per_temperature = 5;
  config.monitors.n_rod = 2;
  config.monitors.n_cpd = 1;
  const auto generated = silicon::generate_dataset(config);
  const Scenario forecast{504.0, 125.0, FeatureSet::kBoth, 24.0};
  EXPECT_EQ(scenario_labels(generated.dataset, forecast),
            generated.dataset.label(504.0, 125.0).values);
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

TEST(Pipeline, FitScreenRejectsNonFiniteInputsInEveryBuildType) {
  // CQR's coverage guarantee assumes finite scores, so fit_screen refuses a
  // non-finite label or feature before the split, in plain Release too, and
  // whichever part of the split the poisoned chip would have landed in.
  const auto generated = silicon::generate_dataset(small_config());
  const auto clean =
      assemble_scenario(generated.dataset, {0.0, 25.0, FeatureSet::kBoth});
  const PipelineConfig config;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::size_t> rows = {0, 13, 26, 39};
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const std::size_t row : rows) {
      for (const bool in_label : {true, false}) {
        ScenarioData poisoned = clean;
        (in_label ? poisoned.y[row] : poisoned.x(row, 3)) = bad;
        const std::string where = std::to_string(bad) +
                                  (in_label ? " in the label" : " in column 3") +
                                  " of row " + std::to_string(row);
        try {
          static_cast<void>(
              fit_screen(poisoned, models::ModelKind::kXgboost, config, 4));
          ADD_FAILURE() << "fit_screen accepted " << where;
        } catch (const contract_violation& e) {
          EXPECT_EQ(e.kind(), "precondition") << where;
          EXPECT_EQ(e.function(), "fit_screen") << where;
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << " threw a non-contract error: " << e.what();
        }
      }
    }
  }
}

TEST(Pipeline, TreePrefilterAdmitsNoParametricColumnOnTheDefaultPopulation) {
  // Fig. 3 and Table IV fit CQR-CatBoost behind the top-|r| tree prefilter.
  // On the default population its 32 columns are all on-chip monitors, so
  // the "on-chip+parametric" design reaches the model as exactly the
  // "on-chip only" one, and the two rows of those benches coincide.
  const auto generated = silicon::generate_dataset(silicon::GeneratorConfig{});
  const PipelineConfig config;
  const auto prefiltered = [&](FeatureSet set) {
    const auto design =
        assemble_scenario(generated.dataset, {0.0, 25.0, set});
    const auto split = data::split_rows(design.x, design.y,
                                        config.split.train_fraction,
                                        config.split.seed);
    std::vector<std::size_t> columns;
    for (const std::size_t c : select_features_for_model(
             split.x_train, split.y_train, models::ModelKind::kCatboost,
             config, config.tree_prefilter)) {
      columns.push_back(design.columns[c]);
    }
    return columns;
  };
  const auto both = prefiltered(FeatureSet::kBoth);
  ASSERT_EQ(both.size(), 32u);
  for (const std::size_t c : both) {
    EXPECT_NE(generated.dataset.feature_info(c).type,
              data::FeatureType::kParametric)
        << "dataset column " << c;
  }
  EXPECT_EQ(both, prefiltered(FeatureSet::kOnChipOnly));
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
