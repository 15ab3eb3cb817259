// VminPipeline: feature assembly + model-specific dimensionality reduction.
//
// Mirrors the paper's protocol (Sec. IV-C): CFS with Pearson correlation
// selects 1..10 features for LR / GP / NN; the tree ensembles (XGBoost,
// CatBoost) rely on their intrinsic feature selection and receive the raw
// features. Because our from-scratch exact-split trees are slower than the
// tuned packages the paper calls into, the pipeline applies a top-|r|
// correlation prefilter before the tree models (default 32 columns,
// PipelineConfig::tree_prefilter) — a documented compute substitution
// (DESIGN.md Sec. 10) that leaves the trees' intrinsic selection to do the
// real work.
#pragma once

#include <cstdint>
#include <memory>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "core/scenario.hpp"
#include "core/split_spec.hpp"
#include "core/units.hpp"
#include "data/dataset.hpp"
#include "models/factory.hpp"

namespace vmincqr::core {

using linalg::Matrix;
using linalg::Vector;

struct PipelineConfig {
  /// Target miscoverage (paper Sec. IV-E); strongly typed so it cannot be
  /// swapped with a quantile level or train fraction.
  MiscoverageAlpha alpha{0.1};
  std::size_t cfs_max_features = 10;
  std::size_t tree_prefilter = 32;
  /// Conformal train/calibration split — the single source of truth, threaded
  /// verbatim into conformal::CqrConfig (and friends) wherever the pipeline
  /// builds a calibrated predictor.
  CalibrationSplit split;
};

/// The assembled design for one scenario: the legal feature columns and the
/// label vector, over all chips (callers then index rows by fold).
struct ScenarioData {
  Matrix x;
  Vector y;
  std::vector<std::size_t> columns;  ///< dataset column index per x column
};

/// Assembles features/labels for a scenario. Throws if the dataset lacks the
/// scenario's label series or no feature column is legal.
ScenarioData assemble_scenario(const data::Dataset& ds,
                               const Scenario& scenario);

/// Model-appropriate feature selection, computed on TRAINING data only.
/// Returns indices into the ScenarioData columns: CFS-selected (up to
/// `n_features`) for LR / GP / NN, top-|r| prefilter for the tree models.
std::vector<std::size_t> select_features_for_model(
    const Matrix& x_train, const Vector& y_train, models::ModelKind kind,
    const PipelineConfig& config, std::size_t n_features);

/// Default CFS sweep sizes per model (paper: best of 1..10). The heavier
/// models get a sparser sweep to keep the benchmark harness tractable; see
/// DESIGN.md Sec. 6.
std::vector<std::size_t> cfs_sweep_for_model(models::ModelKind kind,
                                             const PipelineConfig& config);

/// One fully fitted screening predictor: the fit-time product that either
/// predicts in-process or gets packaged into a serve artifact.
struct FittedScreen {
  /// Feature selection computed on the proper-training part only — indices
  /// into the ScenarioData columns.
  std::vector<std::size_t> selected;
  std::unique_ptr<conformal::ConformalizedQuantileRegressor> predictor;
};

/// The full fit-time path for one scenario: split per config.split, select
/// features on the proper-training part (no calibration leakage), fit the
/// CQR-wrapped quantile pair, calibrate (the paper's symmetric Eq. 9-10).
/// Table III's CQR rows and every served bundle come from this one function.
/// Throws std::invalid_argument on a design too small to split.
FittedScreen fit_screen(const ScenarioData& data, models::ModelKind kind,
                        const PipelineConfig& config, std::size_t n_features);

/// Packages a fitted screen into a serveable artifact bundle (see
/// artifact/bundle.hpp; save with artifact::save_artifact). Consumes the
/// screen. Throws std::invalid_argument if the screen was never fitted.
artifact::VminBundle make_screen_bundle(const Scenario& scenario,
                                        const ScenarioData& data,
                                        FittedScreen screen);

}  // namespace vmincqr::core
