#include "core/experiment.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "data/feature_select.hpp"
#include "data/split.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::core {

namespace {

Vector take(const Vector& v, const std::vector<std::size_t>& idx) {
  Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = v[idx[i]];
  return out;
}

std::vector<std::size_t> prefix(const std::vector<std::size_t>& order,
                                std::size_t k) {
  return {order.begin(),
          order.begin() + static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(k, order.size()))};
}

bool is_tree_model(models::ModelKind kind) {
  return kind == models::ModelKind::kXgboost ||
         kind == models::ModelKind::kCatboost;
}

}  // namespace

std::vector<PointModelScore> evaluate_point_models(
    const data::Dataset& ds, const Scenario& scenario,
    const ExperimentConfig& config, const std::vector<models::ModelKind>& zoo) {
  const ScenarioData data = assemble_scenario(ds, scenario);
  rng::Rng cv_rng(config.cv_seed);
  const auto folds = data::k_fold(data.x.rows(), config.n_folds, cv_rng);

  // (model index, k) -> per-fold (r2, rmse).
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::pair<double, double>>>
      scores;

  for (const auto& fold : folds) {
    const Matrix x_train = data.x.take_rows(fold.train);
    const Vector y_train = take(data.y, fold.train);
    const Matrix x_test = data.x.take_rows(fold.test);
    const Vector y_test = take(data.y, fold.test);

    // CFS is model-agnostic: compute once per fold, share across models.
    const auto cfs_order =
        data::cfs_select(x_train, y_train, config.pipeline.cfs_max_features);
    const auto tree_cols = data::top_correlated(
        x_train, y_train, config.pipeline.tree_prefilter);

    for (std::size_t m = 0; m < zoo.size(); ++m) {
      for (std::size_t k : cfs_sweep_for_model(zoo[m], config.pipeline)) {
        const auto cols =
            is_tree_model(zoo[m]) ? tree_cols : prefix(cfs_order, k);
        auto model = models::make_point_regressor(zoo[m]);
        model->fit(x_train.take_cols(cols), y_train);
        const Vector pred = model->predict(x_test.take_cols(cols));
        scores[{m, k}].emplace_back(stats::r_squared(y_test, pred),
                                    stats::rmse(y_test, pred));
      }
    }
  }

  // Aggregate: mean across folds, then best k per model (paper protocol).
  std::vector<PointModelScore> out;
  out.reserve(zoo.size());
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    PointModelScore best;
    best.model = zoo[m];
    best.model_name = models::model_name(zoo[m]);
    bool first = true;
    for (const auto& [key, fold_scores] : scores) {
      if (key.first != m) continue;
      double r2 = 0.0, rmse = 0.0;
      for (const auto& [fr2, frmse] : fold_scores) {
        r2 += fr2;
        rmse += frmse;
      }
      r2 /= static_cast<double>(fold_scores.size());
      rmse /= static_cast<double>(fold_scores.size());
      if (first || r2 > best.r2) {
        best.r2 = r2;
        best.rmse = rmse;
        best.best_k = key.second;
        first = false;
      }
    }
    out.push_back(best);
  }
  return out;
}

std::string RegionMethodSpec::label() const {
  switch (family) {
    case Family::kGp:
      return "GP";
    case Family::kQr:
      return "QR " + models::model_name(base);
    case Family::kCqr:
      return "CQR " + models::model_name(base);
  }
  return "unknown";
}

std::vector<RegionMethodSpec> table3_methods() {
  using Family = RegionMethodSpec::Family;
  using models::ModelKind;
  std::vector<RegionMethodSpec> specs;
  specs.push_back({Family::kGp, ModelKind::kGp});
  for (Family family : {Family::kQr, Family::kCqr}) {
    for (ModelKind base : {ModelKind::kLinear, ModelKind::kMlp,
                           ModelKind::kXgboost, ModelKind::kCatboost}) {
      specs.push_back({family, base});
    }
  }
  return specs;
}

RegionMethodScore evaluate_region_method(const data::Dataset& ds,
                                         const Scenario& scenario,
                                         const RegionMethodSpec& spec,
                                         const ExperimentConfig& config) {
  const ScenarioData data = assemble_scenario(ds, scenario);
  rng::Rng cv_rng(config.cv_seed);
  const auto folds = data::k_fold(data.x.rows(), config.n_folds, cv_rng);
  const MiscoverageAlpha alpha = config.pipeline.alpha;

  double total_length = 0.0;
  double total_coverage = 0.0;

  for (std::size_t f = 0; f < folds.size(); ++f) {
    const auto& fold = folds[f];
    const ScenarioData train{data.x.take_rows(fold.train),
                             take(data.y, fold.train), {}};
    const Matrix& x_train = train.x;
    const Vector& y_train = train.y;
    const Matrix x_test = data.x.take_rows(fold.test);
    const Vector y_test = take(data.y, fold.test);

    models::IntervalPrediction band;
    switch (spec.family) {
      case RegionMethodSpec::Family::kGp: {
        const auto cols = data::cfs_select(x_train, y_train,
                                           config.region_cfs_features);
        models::GpIntervalRegressor gp(alpha);
        gp.fit(x_train.take_cols(cols), y_train);
        band = gp.predict_interval(x_test.take_cols(cols));
        break;
      }
      case RegionMethodSpec::Family::kQr: {
        const auto cols =
            is_tree_model(spec.base)
                ? data::top_correlated(x_train, y_train,
                                       config.pipeline.tree_prefilter)
                : data::cfs_select(x_train, y_train,
                                   config.region_cfs_features);
        auto pair = models::make_quantile_pair(spec.base, alpha);
        pair->fit(x_train.take_cols(cols), y_train);
        band = pair->predict_interval(x_test.take_cols(cols));
        break;
      }
      case RegionMethodSpec::Family::kCqr: {
        // The served screen's own fit on the training fold. The split seed
        // depends only on the fold, so every method sees the same split.
        PipelineConfig pipeline = config.pipeline;
        pipeline.split.seed += f;
        const FittedScreen screen = fit_screen(train, spec.base, pipeline,
                                               config.region_cfs_features);
        band = screen.predictor->predict_interval(
            x_test.take_cols(screen.selected));
        break;
      }
    }

    total_coverage += stats::interval_coverage(y_test, band.lower, band.upper);
    total_length += stats::mean_interval_length(band.lower, band.upper);
  }

  RegionMethodScore score;
  score.method = spec.label();
  const auto nf = static_cast<double>(folds.size());
  score.mean_length_mv = total_length / nf * 1000.0;
  score.coverage_pct = total_coverage / nf * 100.0;
  return score;
}

std::vector<RegionMethodScore> evaluate_region_methods(
    const data::Dataset& ds, const Scenario& scenario,
    const ExperimentConfig& config) {
  std::vector<RegionMethodScore> out;
  for (const auto& spec : table3_methods()) {
    out.push_back(evaluate_region_method(ds, scenario, spec, config));
  }
  return out;
}

}  // namespace vmincqr::core
