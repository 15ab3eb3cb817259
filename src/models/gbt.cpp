#include "models/gbt.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::models {
namespace {

/// Row count below which per-row loops (gradients, prediction updates) stay
/// inline — at the paper's scale (~117 rows) a dispatch costs more than the
/// loop. Shape-dependent only, so results are unaffected.
constexpr std::size_t kMinParallelRows = 256;

}  // namespace

GradientBoostedTrees::GradientBoostedTrees(GbtConfig config)
    : config_(config) {
  if (config_.n_rounds <= 0) {
    throw std::invalid_argument("GradientBoostedTrees: n_rounds <= 0");
  }
  if (config_.learning_rate <= 0.0) {
    throw std::invalid_argument("GradientBoostedTrees: learning_rate <= 0");
  }
}

void GradientBoostedTrees::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  n_features_ = x.cols();
  trees_.clear();
  const std::size_t n = x.rows();

  // Initialize with the unconditional optimum of the loss.
  if (config_.loss.kind == LossKind::kPinball) {
    base_score_ = stats::quantile_linear(y, config_.loss.quantile);
  } else {
    base_score_ = stats::mean(y);
  }

  Vector pred(n, base_score_);
  Vector grad(n), hess(n);
  trees_.reserve(static_cast<std::size_t>(config_.n_rounds));

  // Every feature's rows are sorted once per fit, then partitioned down
  // each round's tree.
  SortedDesign sorted(x);

  const bool parallel_rows = n >= kMinParallelRows;
  for (int round = 0; round < config_.n_rounds; ++round) {
    parallel::parallel_for(
        n, /*grain=*/0,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            grad[i] = config_.loss.gradient(y[i], pred[i]);
            hess[i] = config_.loss.hessian(y[i], pred[i]);
          }
        },
        parallel_rows);
    RegressionTree tree;
    tree.fit(sorted, grad, hess, config_.tree);
    const auto& leaf_ids = tree.train_leaf_ids();

    if (config_.loss.kind == LossKind::kPinball) {
      // Leaf-quantile refit: set each leaf to the loss-optimal constant for
      // the samples it contains (the q-quantile of current residuals).
      std::vector<std::vector<double>> residuals(tree.n_leaves());
      for (std::size_t i = 0; i < n; ++i) {
        residuals[static_cast<std::size_t>(leaf_ids[i])].push_back(y[i] -
                                                                   pred[i]);
      }
      for (std::size_t leaf = 0; leaf < tree.n_leaves(); ++leaf) {
        if (residuals[leaf].empty()) continue;
        tree.set_leaf_value(
            static_cast<std::int32_t>(leaf),
            stats::quantile_linear(residuals[leaf], config_.loss.quantile));
      }
    }

    // Each training row's leaf is known from the fit, which partitioned the
    // rows by the `x <= threshold` test predict_row walks, so
    // leaf_value(leaf id) is what predict_row would return.
    parallel::parallel_for(
        n, /*grain=*/0,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            pred[i] += config_.learning_rate * tree.leaf_value(leaf_ids[i]);
          }
        },
        parallel_rows);
    trees_.push_back(std::move(tree));
  }
  rebuild_flat();
  fitted_ = true;
}

void GradientBoostedTrees::rebuild_flat() {
  flat_.clear();
  for (const auto& tree : trees_) flat_.add_tree(tree.nodes());
}

Vector GradientBoostedTrees::predict(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  Vector out(x.rows(), base_score_);
  // Row-sharded over the flat SoA planes. Each row still accumulates its
  // trees in round order on top of the base score, so the summation order —
  // and therefore every bit — matches the old pointer-chasing loop; the
  // kernel only re-tiles WHICH (row, tree) pair is traversed when. The
  // grain pins shards to the traversal row block: auto-grain would cut
  // small batches into slivers that re-stream the node planes per sliver.
  parallel::parallel_for(
      x.rows(), /*grain=*/models::kTraversalRowBlock,
      [&](std::size_t begin, std::size_t end) {
        flat_.accumulate(x.row_ptr(begin), end - begin, x.cols(),
                         config_.learning_rate, out.data() + begin);
      },
      /*use_pool=*/x.rows() >= kMinParallelRows);
  return out;
}

Vector GradientBoostedTrees::feature_importance() const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees: not fitted");
  }
  std::vector<double> gains(n_features_, 0.0);
  for (const auto& tree : trees_) tree.accumulate_feature_gains(gains);
  double total = 0.0;
  for (double g : gains) total += g;
  if (total > 0.0) {
    for (auto& g : gains) g /= total;
  }
  return gains;
}

std::unique_ptr<Regressor> GradientBoostedTrees::clone_config() const {
  return std::make_unique<GradientBoostedTrees>(config_);
}

GbtParams GradientBoostedTrees::export_params() const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::export_params: not fitted");
  }
  GbtParams params;
  params.base_score = base_score_;
  params.learning_rate = config_.learning_rate;
  params.n_features = n_features_;
  params.trees.reserve(trees_.size());
  for (const auto& tree : trees_) params.trees.push_back(tree.nodes());
  return params;
}

void GradientBoostedTrees::import_params(const GbtParams& params) {
  if (!(params.learning_rate > 0.0) || params.n_features == 0) {
    throw std::invalid_argument(
        "GradientBoostedTrees::import_params: bad hyperparameters");
  }
  std::vector<RegressionTree> trees;
  trees.reserve(params.trees.size());
  for (const auto& nodes : params.trees) {
    for (const auto& node : nodes) {
      if (!node.is_leaf && node.feature >= params.n_features) {
        throw std::invalid_argument(
            "GradientBoostedTrees::import_params: feature index out of range");
      }
    }
    RegressionTree tree;
    tree.import_nodes(nodes);
    trees.push_back(std::move(tree));
  }
  trees_ = std::move(trees);
  base_score_ = params.base_score;
  config_.learning_rate = params.learning_rate;
  n_features_ = params.n_features;
  rebuild_flat();
  fitted_ = true;
}

}  // namespace vmincqr::models
