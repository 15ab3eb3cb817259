// Gradient-boosted trees in the XGBoost formulation (paper Sec. IV-C.2 uses
// the XGBoost Python package with default hyper-parameters, which we mirror:
// 100 rounds, eta 0.3, max_depth 6, lambda 1).
//
// Second-order boosting: each round fits a RegressionTree to the per-sample
// gradient/hessian of the loss at the current prediction. With pinball loss
// the tree structure is fitted to the subgradient and each leaf value is then
// refit to the alpha-quantile of the in-leaf residuals (the standard quantile
// gradient-boosting leaf refinement), which restores genuine conditional-
// quantile semantics despite the loss's zero curvature.
#pragma once

#include "models/flat_forest.hpp"
#include "models/losses.hpp"
#include "models/regressor.hpp"
#include "models/tree.hpp"

namespace vmincqr::models {

struct GbtConfig {
  Loss loss = Loss::squared();
  int n_rounds = 100;        ///< XGBoost default n_estimators
  double learning_rate = 0.3;  ///< XGBoost default eta
  TreeConfig tree;           ///< defaults mirror XGBoost (depth 6, lambda 1)
  double base_score_quantile = 0.5;  ///< init for pinball mode
};

/// Fitted state of a GradientBoostedTrees ensemble: the base score, the
/// learning rate the forward pass applies, and one node array per round.
struct GbtParams {
  double base_score = 0.0;
  double learning_rate = 0.3;
  std::size_t n_features = 0;
  std::vector<std::vector<TreeNode>> trees;
};

class GradientBoostedTrees final : public Regressor {
 public:
  explicit GradientBoostedTrees(GbtConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "XGBoost"; }
  [[nodiscard]] bool fitted() const override { return fitted_; }

  [[nodiscard]] std::size_t n_trees() const noexcept { return trees_.size(); }

  /// Gain-based feature importance (normalized to sum 1; all-zero when no
  /// split was ever made). Throws std::logic_error if not fitted.
  [[nodiscard]] Vector feature_importance() const;

  /// Copies out the fitted state. Throws std::logic_error if not fitted.
  [[nodiscard]] GbtParams export_params() const;

  /// Adopts previously exported state and marks the model fitted.
  /// Throws std::invalid_argument on malformed trees or hyperparameters.
  void import_params(const GbtParams& params);

 private:
  /// Rebuilds flat_ from trees_ (fit and import both end here).
  void rebuild_flat();

  GbtConfig config_;
  std::vector<RegressionTree> trees_;
  FlatForest flat_;  ///< SoA planes of the whole ensemble (predict kernel)
  double base_score_ = 0.0;
  std::size_t n_features_ = 0;
  bool fitted_ = false;
};

}  // namespace vmincqr::models
