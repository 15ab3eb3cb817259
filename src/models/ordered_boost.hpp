// CatBoost-style boosting: oblivious (symmetric) decision trees plus ordered
// boosting (paper Sec. IV-C.3 uses the CatBoost package with 100 trees).
//
// Oblivious trees apply ONE (feature, threshold) test per level, so a depth-d
// tree has 2^d leaves addressed by a d-bit mask — the structural prior that
// makes CatBoost robust on small datasets like the paper's 156 chips.
//
// Ordered boosting (Prokhorenkova et al., 2018) combats prediction shift: the
// model value used to compute sample i's gradient is built only from samples
// that precede i in a random permutation. We implement the single-permutation
// variant: leaf statistics are accumulated in permutation order, and each
// sample's running prediction is updated with the prefix-only leaf estimate.
// Split scoring uses plain (all-sample) statistics, as CatBoost's Plain mode
// does; the `ordered` flag switches the leaf-estimation scheme.
//
// FeatureBinner ranks each value against its feature's borders once per fit,
// so the level search tests a code instead of the value (invariant below).
#pragma once

#include <cstdint>
#include <vector>

#include "models/flat_forest.hpp"
#include "models/losses.hpp"
#include "models/regressor.hpp"
#include "rng/rng.hpp"

namespace vmincqr::models {

struct OrderedBoostConfig {
  Loss loss = Loss::squared();
  int n_rounds = 100;          ///< the paper reduces CatBoost to 100 trees
  double learning_rate = 0.1;
  int depth = 4;               ///< shallower than CatBoost's default 6:
                               ///< ~150-sample datasets overfit 64-leaf trees
  double l2_leaf_reg = 3.0;    ///< CatBoost default
  int border_count = 24;       ///< feature-quantile split candidates
  /// Ordered vs. plain boosting. Ordered boosting is CatBoost's hallmark
  /// defence against prediction shift; our single-permutation variant trades
  /// some accuracy for that protection and measures worse on the paper-sized
  /// datasets (see bench/ablation_conformal), so Plain is the default — as
  /// CatBoost itself recommends when overfitting is controlled by other
  /// means (shallow trees + L2).
  bool ordered = false;
  /// Ordered-mode permutation policy. A single fixed permutation gives a
  /// consistent prefix-model trajectory (stable; best for squared loss) but
  /// systematically starves early-permutation samples of updates, which
  /// inflates extreme-quantile leaf refits. A fresh permutation per round
  /// fixes the starvation and is the default for pinball loss.
  bool fresh_permutation_each_round = false;
  std::uint64_t seed = 1234;   ///< permutation seed
};

/// One oblivious tree: `depth` (feature, threshold) tests and 2^depth leaves.
struct ObliviousTree {
  std::vector<std::size_t> features;
  std::vector<double> thresholds;
  std::vector<double> leaf_values;

  /// Leaf index for a feature row (bit l set iff row[feature_l] > thr_l).
  [[nodiscard]] std::size_t leaf_index(const double* row) const {
    std::size_t idx = 0;
    for (std::size_t l = 0; l < features.size(); ++l) {
      idx |= static_cast<std::size_t>(row[features[l]] > thresholds[l]) << l;
    }
    return idx;
  }
  [[nodiscard]] double predict_row(const double* row) const {
    return leaf_values[leaf_index(row)];
  }
};

/// Per-feature ranks of values against explicit split thresholds.
///
/// import_edges() adopts ascending bin EDGES per feature (ordered-boost
/// borders), and bin_of() maps a value to its bin code. The invariant that
/// makes a code an exact stand-in for a threshold test:
///
///   bin_of(f, v) <= b   <=>   v <= edges(f)[b]
///
/// so "bins 0..b go left" IS the tree split `x <= edges(f)[b]`, and a fitted
/// tree stores ordinary thresholds — prediction never sees the binner.
class FeatureBinner {
 public:
  /// Adopts explicit per-feature ascending edge lists (e.g. ordered-boost
  /// borders); a feature with no edges is a single bin. Throws
  /// std::invalid_argument on unsorted or non-finite edges or a feature
  /// with > 65535 edges (codes are uint16).
  void import_edges(std::vector<std::vector<double>> edges);

  [[nodiscard]] const std::vector<double>& edges(std::size_t feature) const {
    return edges_[feature];
  }

  /// Bin code of one value: the number of edges < value.
  [[nodiscard]] std::uint16_t bin_of(std::size_t feature, double value) const;

  /// Row-major (rows x features) code matrix for x. Throws
  /// std::invalid_argument when x.cols() differs from the feature count.
  [[nodiscard]] std::vector<std::uint16_t> bin(const Matrix& x) const;

 private:
  std::vector<std::vector<double>> edges_;  ///< ascending, per feature
};

/// Fitted state of an OrderedBoostedTrees ensemble. ObliviousTree is already
/// a plain value type, so the trees serialize as-is.
struct OrderedBoostParams {
  double base_score = 0.0;
  double learning_rate = 0.1;
  std::size_t n_features = 0;
  std::vector<ObliviousTree> trees;
  Vector feature_gains;  ///< accumulated split gains (importance diagnostics)
};

class OrderedBoostedTrees final : public Regressor {
 public:
  explicit OrderedBoostedTrees(OrderedBoostConfig config = {});

  void fit(const Matrix& x, const Vector& y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone_config() const override;
  [[nodiscard]] std::string name() const override { return "CatBoost"; }
  [[nodiscard]] bool fitted() const override { return fitted_; }

  [[nodiscard]] std::size_t n_trees() const noexcept { return trees_.size(); }

  /// Gain-based feature importance (normalized to sum 1; all-zero when no
  /// split improved the objective). Throws std::logic_error if not fitted.
  [[nodiscard]] Vector feature_importance() const;

  /// Copies out the fitted state. Throws std::logic_error if not fitted.
  [[nodiscard]] OrderedBoostParams export_params() const;

  /// Adopts previously exported state and marks the model fitted.
  /// Throws std::invalid_argument on malformed trees or hyperparameters.
  void import_params(OrderedBoostParams params);

 private:
  /// Quantile-based candidate thresholds per feature.
  [[nodiscard]] std::vector<std::vector<double>> compute_borders(const Matrix& x) const;

  /// Rebuilds flat_ from trees_ (fit and import both end here).
  void rebuild_flat();

  OrderedBoostConfig config_;
  std::vector<ObliviousTree> trees_;
  FlatObliviousForest flat_;  ///< SoA level/leaf planes (predict kernel)
  Vector feature_gains_;
  double base_score_ = 0.0;
  std::size_t n_features_ = 0;
  bool fitted_ = false;
};

}  // namespace vmincqr::models
