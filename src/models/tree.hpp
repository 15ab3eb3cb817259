// Regression tree trained on per-sample gradient/hessian statistics with
// exact greedy splits — the building block of both boosting models.
//
// Split gain and leaf weights follow the XGBoost formulation:
//   leaf weight w* = -G / (H + lambda)
//   gain = 1/2 [ Gl^2/(Hl+l) + Gr^2/(Hr+l) - G^2/(H+l) ] - gamma.
// For pinball-loss boosting, leaf values can be overwritten after structure
// fitting (leaf-quantile refit), which fit() supports via train_leaf_ids().
#pragma once

#include <cstdint>
#include <vector>

#include "core/binning.hpp"
#include "linalg/matrix.hpp"
#include "models/flat_forest.hpp"

namespace vmincqr::models {

using linalg::Matrix;
using linalg::Vector;

struct TreeConfig {
  int max_depth = 6;
  double lambda = 1.0;          ///< L2 regularization on leaf weights
  double gamma = 0.0;           ///< minimum gain to split
  double min_child_weight = 1.0;  ///< minimum sum of hessians per child
  std::size_t min_samples_leaf = 1;
};

/// One node of a fitted tree — the serializable unit a RegressionTree
/// exports and rebuilds from. Index 0 is the root; children index into the
/// same node array.
struct TreeNode {
  bool is_leaf = true;
  std::size_t feature = 0;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;         ///< leaf weight
  std::int32_t leaf_id = -1;  ///< dense leaf numbering
  double gain = 0.0;          ///< split gain (internal nodes)
};

/// The exact split search's view of one design matrix, built once and shared
/// by every tree fitted on it (GradientBoostedTrees builds one per fit).
///
/// It holds each feature's row ids sorted by (x(r, f), r), the order in which
/// the exact search scans a node's rows. A node owns the same contiguous
/// segment of every feature's list. A split stably partitions each segment by
/// the split test, left rows first; a stable partition of a (value, row)-
/// sorted list is exactly what re-sorting each child would produce, so every
/// node scans the rows a per-node sort would give it, in the same order
/// (DESIGN.md §9).
class SortedDesign {
 public:
  /// Sorts every column of x once. Throws std::invalid_argument on an empty
  /// matrix or more rows than 32-bit row ids address.
  explicit SortedDesign(const Matrix& x);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  friend class RegressionTree;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// x column-major: columns_[f * rows_ + r] == x(r, f).
  std::vector<double> columns_;
  /// cols_ + 1 lists of rows_ ids each: feature f's rows sorted by
  /// (x(r, f), r), then every row in ascending order (the order node totals
  /// and leaf ids are taken in).
  std::vector<std::uint32_t> sorted_;
  /// One fit's working copy of sorted_, partitioned in place node by node.
  std::vector<std::uint32_t> order_;
  /// The right-hand rows of a segment while it is partitioned.
  std::vector<std::uint32_t> spill_;
  /// The split test per row of the node being partitioned (1 = left).
  std::vector<std::uint8_t> goes_left_;
};

class RegressionTree {
 public:
  /// Fits the tree structure to (x, grad, hess). All vectors length x.rows().
  /// Throws std::invalid_argument on shape mismatch.
  void fit(const Matrix& x, const Vector& grad, const Vector& hess,
           const TreeConfig& config);

  /// fit() over a prebuilt SortedDesign of x, so a boosting loop sorts its
  /// design once rather than once per tree; the tree is the same, bit for
  /// bit. Throws std::invalid_argument when grad/hess do not have
  /// design.rows() entries.
  void fit(SortedDesign& design, const Vector& grad, const Vector& hess,
           const TreeConfig& config);

  /// Histogram-split variant of fit(): the split search scans pre-binned
  /// codes (one G/H/count histogram per feature) with candidate thresholds
  /// limited to the binner's edges, instead of every midpoint of the exact
  /// presorted scan. Fully deterministic and thread-count invariant, but the
  /// chosen splits can differ from fit()'s exact scan — fast-tier only
  /// (linalg::KernelPolicy::kFast fit paths route here).
  /// `codes` is the binner's row-major code matrix for x; throws
  /// std::invalid_argument on shape mismatch with x or the binner.
  void fit_binned(const Matrix& x, const Vector& grad, const Vector& hess,
                  const TreeConfig& config, const core::FeatureBinner& binner,
                  const std::vector<std::uint16_t>& codes);

  /// Prediction for one feature row of length d (must equal the training
  /// feature count; unchecked hot path).
  [[nodiscard]] double predict_row(const double* row) const;

  /// Predictions for every row of x. Throws std::logic_error if not fitted.
  [[nodiscard]] Vector predict(const Matrix& x) const;

  /// Leaf id per training row (size = rows of the design passed to fit).
  [[nodiscard]] const std::vector<std::int32_t>& train_leaf_ids() const {
    return train_leaf_ids_;
  }

  /// Leaf id a feature row would land in.
  [[nodiscard]] std::int32_t leaf_id_for_row(const double* row) const;

  [[nodiscard]] std::size_t n_leaves() const noexcept { return n_leaves_; }
  [[nodiscard]] bool fitted() const noexcept { return !nodes_.empty(); }

  /// Overwrites the value of a leaf (by leaf id). Throws std::out_of_range.
  void set_leaf_value(std::int32_t leaf_id, double value);
  [[nodiscard]] double leaf_value(std::int32_t leaf_id) const;

  /// Adds each internal node's split gain to gains[feature]. gains must be
  /// sized to the training feature count. Throws std::invalid_argument on a
  /// too-small vector.
  void accumulate_feature_gains(std::vector<double>& gains) const;

  /// The fitted node array (empty when unfitted).
  [[nodiscard]] const std::vector<TreeNode>& nodes() const noexcept {
    return nodes_;
  }

  /// Rebuilds the tree from an exported node array; leaf bookkeeping is
  /// re-derived from the stored leaf ids (per-training-row ids are not
  /// restored — they are a fit-time-only diagnostic). Throws
  /// std::invalid_argument on dangling children or non-dense leaf ids.
  void import_nodes(std::vector<TreeNode> nodes);

  /// The single-tree SoA planes predict() traverses (rebuilt by fit /
  /// fit_binned / import_nodes, kept in sync by set_leaf_value). Ensemble
  /// models build their own multi-tree FlatForest from nodes() instead.
  [[nodiscard]] const FlatForest& flat() const noexcept { return flat_; }

 private:
  /// Grows the subtree over the rows of segment [begin, end) of every
  /// design.order_ list.
  std::int32_t build(SortedDesign& design, const Vector& grad,
                     const Vector& hess, const TreeConfig& config,
                     std::size_t begin, std::size_t end, int depth);

  std::int32_t build_binned(const Vector& grad, const Vector& hess,
                            const TreeConfig& config,
                            const core::FeatureBinner& binner,
                            const std::vector<std::uint16_t>& codes,
                            std::size_t n_features,
                            std::vector<std::size_t>& rows, int depth);

  std::vector<TreeNode> nodes_;
  FlatForest flat_;  // single-tree SoA mirror of nodes_ (see flat())
  std::vector<std::int32_t> leaf_node_index_;  // leaf_id -> node index
  std::vector<std::int32_t> train_leaf_ids_;
  std::size_t n_leaves_ = 0;
};

}  // namespace vmincqr::models
