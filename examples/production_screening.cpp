// Production-test screening (paper Sec. I / II-B motivation): use calibrated
// Vmin intervals at time 0 to screen chips against the min_spec limit with
// explicit overkill / underkill accounting.
//
// Decision rule per chip:
//   * upper bound <= min_spec  -> PASS  (confidently within spec)
//   * lower bound >  min_spec  -> FAIL  (confidently out of spec)
//   * otherwise                -> RETEST (interval straddles the limit)
// Compared against the point-prediction rule (pass iff y_hat <= min_spec),
// which silently converts interval uncertainty into overkill/underkill.
#include <cstdio>

#include "conformal/cqr.hpp"
#include "core/pipeline.hpp"
#include "core/screening.hpp"
#include "data/feature_select.hpp"
#include "models/factory.hpp"
#include "silicon/dataset_gen.hpp"

using namespace vmincqr;

int main() {
  // Larger population so the screening counts are meaningful; the defect
  // subpopulation (~5%) provides the out-of-spec chips.
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 400;
  const auto generated = silicon::generate_dataset(gen_config);
  const data::Dataset& ds = generated.dataset;

  const core::Scenario scenario{0.0, -45.0, core::FeatureSet::kBoth};
  const auto data = core::assemble_scenario(ds, scenario);

  // Train on the first 300 chips, screen the remaining 100.
  std::vector<std::size_t> train_rows, screen_rows;
  for (std::size_t i = 0; i < ds.n_chips(); ++i) {
    (i < 300 ? train_rows : screen_rows).push_back(i);
  }
  const auto x_train = data.x.take_rows(train_rows);
  linalg::Vector y_train(train_rows.size());
  for (std::size_t i = 0; i < train_rows.size(); ++i) {
    y_train[i] = data.y[train_rows[i]];
  }
  const auto x_screen = data.x.take_rows(screen_rows);

  const auto cols = data::top_correlated(x_train, y_train, 32);
  const double alpha = 0.1;
  conformal::ConformalizedQuantileRegressor cqr(
      core::MiscoverageAlpha{alpha}, models::make_quantile_pair(models::ModelKind::kCatboost, core::MiscoverageAlpha{alpha}));
  cqr.fit(x_train.take_cols(cols), y_train);
  const auto band = cqr.predict_interval(x_screen.take_cols(cols));

  auto point_model = models::make_point_regressor(models::ModelKind::kLinear);
  point_model->fit(x_train.take_cols(cols), y_train);
  const auto y_hat = point_model->predict(x_screen.take_cols(cols));

  // min_spec: a realistic limit placed above the healthy population
  // (healthy cold Vmin ~ 0.595 V + spread).
  const core::Volt min_spec{0.655};

  linalg::Vector y_screen(screen_rows.size());
  for (std::size_t i = 0; i < screen_rows.size(); ++i) {
    y_screen[i] = data.y[screen_rows[i]];
  }

  const auto interval_rule =
      core::screen_batch_interval(y_screen, band.lower, band.upper, min_spec);
  const auto point_rule =
      core::screen_batch_point(y_screen, y_hat, /*guard_band=*/core::Millivolt{0.0},
                              min_spec);

  std::printf("production screening @ %s, min_spec = %.0f mV\n",
              core::describe(scenario).c_str(), min_spec.to_millivolts().value());
  std::printf("screened %zu chips, %zu truly out of spec\n\n",
              screen_rows.size(), interval_rule.n_truly_bad);
  std::printf("interval rule (CQR CatBoost, 90%% bands):\n");
  std::printf("  pass=%zu fail=%zu retest=%zu overkill=%zu underkill=%zu "
              "(retest rate %.0f%%)\n",
              interval_rule.n_pass, interval_rule.n_fail,
              interval_rule.n_retest, interval_rule.n_overkill,
              interval_rule.n_underkill, interval_rule.retest_rate() * 100.0);
  std::printf("point rule (Linear Regression estimate, no guard band):\n");
  std::printf("  pass=%zu fail=%zu retest=0 overkill=%zu underkill=%zu\n",
              point_rule.n_pass, point_rule.n_fail, point_rule.n_overkill,
              point_rule.n_underkill);

  std::printf(
      "\nThe interval rule converts uncertain calls into explicit retests\n"
      "instead of silent overkill/underkill (Sec. II-B).\n");
  return 0;
}
