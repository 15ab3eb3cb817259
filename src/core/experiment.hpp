// Experiment runner: the paper's evaluation protocol (Sec. IV-B).
//
// 4-fold cross-validation over the chip population; per fold, models are
// trained on the training chips (with feature selection computed on the
// training fold only) and evaluated on the held-out chips. For CQR, 75% of
// the training fold trains the quantile pair and 25% calibrates, with the
// same split seed shared by every interval method ("to ensure a fair
// comparison, we use the same random seed for all Vmin interval
// predictors").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::core {

struct ExperimentConfig {
  PipelineConfig pipeline;
  std::size_t n_folds = 4;          ///< the paper's 4-fold CV
  std::uint64_t cv_seed = 2024;
  std::size_t region_cfs_features = 8;  ///< CFS width for LR/GP/NN intervals
};

// ---------------------------------------------------------------------------
// Point prediction (Fig. 2).

struct PointModelScore {
  models::ModelKind model;
  std::string model_name;
  double r2 = 0.0;        ///< mean test R^2 across folds, at the best k
  double rmse = 0.0;      ///< mean test RMSE (volts) at the best k
  std::size_t best_k = 0; ///< CFS feature count that won the sweep
};

/// Runs the Fig. 2 protocol for one scenario: every model in `zoo`, CFS
/// sweep per cfs_sweep_for_model, best test score reported (the paper's
/// "pick 1 to 10 features ... report the best testing scores").
std::vector<PointModelScore> evaluate_point_models(
    const data::Dataset& ds, const Scenario& scenario,
    const ExperimentConfig& config,
    const std::vector<models::ModelKind>& zoo = models::point_model_zoo());

// ---------------------------------------------------------------------------
// Region prediction (Table III).

struct RegionMethodSpec {
  enum class Family : std::uint8_t { kGp, kQr, kCqr };
  Family family = Family::kCqr;
  models::ModelKind base = models::ModelKind::kLinear;  ///< ignored for kGp

  [[nodiscard]] std::string label() const;
};

/// The nine Table III rows: GP, QR x {LR, NN, XGB, CatBoost}, CQR x same.
std::vector<RegionMethodSpec> table3_methods();

struct RegionMethodScore {
  std::string method;
  double mean_length_mv = 0.0;  ///< average interval length, millivolts
  double coverage_pct = 0.0;    ///< empirical coverage of true Vmin, percent
};

/// Cross-validated interval metrics for one method on one scenario.
RegionMethodScore evaluate_region_method(const data::Dataset& ds,
                                         const Scenario& scenario,
                                         const RegionMethodSpec& spec,
                                         const ExperimentConfig& config);

/// All Table III rows for one scenario.
std::vector<RegionMethodScore> evaluate_region_methods(
    const data::Dataset& ds, const Scenario& scenario,
    const ExperimentConfig& config);

// ---------------------------------------------------------------------------
// Utilities.

/// Runs f(0..n-1) on the process thread pool and collects the results in
/// order — how the bench harnesses parallelize evaluate_region_method and
/// evaluate_point_models across scenarios. The mapped function must be
/// thread-safe (all experiment entry points above are: they share only
/// immutable data) and T default-constructible. Each index is its own chunk,
/// so results are the same objects a sequential loop would produce.
/// fit_screen is a pipeline root, not such an entry point: it sets the
/// process-wide kernel policy and throws contract_violation inside a pool
/// task.
template <typename T>
std::vector<T> parallel_map(std::size_t n,
                            const std::function<T(std::size_t)>& f) {
  std::vector<T> out(n);
  parallel::parallel_for(n, /*grain=*/1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             out[i] = f(i);
                           }
                         });
  return out;
}

}  // namespace vmincqr::core
