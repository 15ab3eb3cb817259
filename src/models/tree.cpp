#include "models/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.hpp"

namespace vmincqr::models {
namespace {

/// Node work (rows x features) below which the split search stays inline:
/// a pool dispatch costs more than the scan itself at the bottom of the
/// tree. Shape-dependent only — the chunk grid, and therefore the chosen
/// split, is identical either way.
constexpr std::size_t kMinParallelSplitWork = 4096;

/// Best split seen by one feature chunk. gain==0 means "no admissible
/// split", matching the sequential search's best_gain <= 0 leaf test.
struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  double threshold = 0.0;
};

}  // namespace

SortedDesign::SortedDesign(const Matrix& x) : rows_(x.rows()), cols_(x.cols()) {
  if (rows_ == 0 || cols_ == 0) {
    throw std::invalid_argument("SortedDesign: empty design matrix");
  }
  if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("SortedDesign: too many rows for 32-bit ids");
  }
  columns_.resize(cols_ * rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = x.row_ptr(r);
    for (std::size_t f = 0; f < cols_; ++f) columns_[f * rows_ + r] = row[f];
  }
  sorted_.resize((cols_ + 1) * rows_);
  // Each list is sorted on its own, so the pool may run them in any order.
  parallel::parallel_for(
      cols_ + 1, /*grain=*/1,
      [&](std::size_t l_begin, std::size_t l_end) {
        for (std::size_t l = l_begin; l < l_end; ++l) {
          std::uint32_t* list = sorted_.data() + l * rows_;
          std::iota(list, list + rows_, std::uint32_t{0});
          if (l == cols_) continue;  // the all-rows list stays ascending
          const double* column = columns_.data() + l * rows_;
          // Row id breaks value ties, so the order is a pure function of x.
          std::sort(list, list + rows_, [column](std::uint32_t a, std::uint32_t b) {
            if (column[a] != column[b]) return column[a] < column[b];
            return a < b;
          });
        }
      },
      /*use_pool=*/rows_ * cols_ >= kMinParallelSplitWork);
  order_.resize(sorted_.size());
  spill_.resize(sorted_.size());
  goes_left_.resize(rows_);
}

void RegressionTree::fit(const Matrix& x, const Vector& grad,
                         const Vector& hess, const TreeConfig& config) {
  if (grad.size() != x.rows() || hess.size() != x.rows()) {
    throw std::invalid_argument("RegressionTree::fit: grad/hess size mismatch");
  }
  SortedDesign design(x);  // throws on an empty design
  fit(design, grad, hess, config);
}

void RegressionTree::fit(SortedDesign& design, const Vector& grad,
                         const Vector& hess, const TreeConfig& config) {
  if (grad.size() != design.rows() || hess.size() != design.rows()) {
    throw std::invalid_argument("RegressionTree::fit: grad/hess size mismatch");
  }
  nodes_.clear();
  leaf_node_index_.clear();
  n_leaves_ = 0;
  train_leaf_ids_.assign(design.rows(), -1);
  design.order_ = design.sorted_;  // same size: reuses the buffer
  build(design, grad, hess, config, 0, design.rows(), 0);
}

void RegressionTree::import_nodes(std::vector<TreeNode> nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("RegressionTree::import_nodes: empty tree");
  }
  const auto n = static_cast<std::int32_t>(nodes.size());
  std::size_t n_leaves = 0;
  for (const auto& node : nodes) {
    if (node.is_leaf) {
      ++n_leaves;
      continue;
    }
    if (node.left < 0 || node.left >= n || node.right < 0 || node.right >= n) {
      throw std::invalid_argument(
          "RegressionTree::import_nodes: dangling child index");
    }
  }
  std::vector<std::int32_t> leaf_index(n_leaves, -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    if (!node.is_leaf) continue;
    if (node.leaf_id < 0 || static_cast<std::size_t>(node.leaf_id) >= n_leaves ||
        leaf_index[static_cast<std::size_t>(node.leaf_id)] != -1) {
      throw std::invalid_argument(
          "RegressionTree::import_nodes: leaf ids not dense");
    }
    leaf_index[static_cast<std::size_t>(node.leaf_id)] =
        static_cast<std::int32_t>(i);
  }
  nodes_ = std::move(nodes);
  leaf_node_index_ = std::move(leaf_index);
  n_leaves_ = n_leaves;
  train_leaf_ids_.clear();
}

std::int32_t RegressionTree::build(SortedDesign& design, const Vector& grad,
                                   const Vector& hess, const TreeConfig& config,
                                   std::size_t begin, std::size_t end,
                                   int depth) {
  const std::size_t n = design.rows_;
  const std::size_t d = design.cols_;
  const std::size_t count = end - begin;
  // The node's rows in ascending id order: the all-rows list's segment.
  const std::uint32_t* rows = design.order_.data() + d * n;
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
  }

  const auto make_leaf = [&]() {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.value = -g_total / (h_total + config.lambda);
    leaf.leaf_id = static_cast<std::int32_t>(n_leaves_++);
    const auto node_index = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(leaf);
    leaf_node_index_.push_back(node_index);
    for (std::size_t i = begin; i < end; ++i) {
      train_leaf_ids_[rows[i]] = leaf.leaf_id;
    }
    return node_index;
  };

  if (depth >= config.max_depth || count < 2 * config.min_samples_leaf ||
      count < 2) {
    return make_leaf();
  }

  // Exact greedy split search, parallel across features: each chunk scans
  // its features' presorted segments, then the per-chunk bests fold in
  // ascending feature order — so the winner (first strict maximum) matches
  // a sequential feature-order scan at every thread count.
  const double parent_score = g_total * g_total / (h_total + config.lambda);
  const bool use_pool = count * d >= kMinParallelSplitWork;
  const SplitCandidate best = parallel::parallel_deterministic_reduce(
      d, /*grain=*/1, SplitCandidate{},
      [&](std::size_t f_begin, std::size_t f_end) {
        SplitCandidate local;
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const std::uint32_t* sorted = design.order_.data() + f * n;
          const double* column = design.columns_.data() + f * n;
          double g_left = 0.0, h_left = 0.0;
          for (std::size_t i = begin; i + 1 < end; ++i) {
            const std::uint32_t r = sorted[i];
            g_left += grad[r];
            h_left += hess[r];
            const double v = column[r];
            const double v_next = column[sorted[i + 1]];
            if (v == v_next) continue;  // cannot split between equal values
            const std::size_t n_left = i + 1 - begin;
            const std::size_t n_right = count - n_left;
            if (n_left < config.min_samples_leaf ||
                n_right < config.min_samples_leaf) {
              continue;
            }
            const double g_right = g_total - g_left;
            const double h_right = h_total - h_left;
            if (h_left < config.min_child_weight ||
                h_right < config.min_child_weight) {
              continue;
            }
            const double gain =
                0.5 *
                    (g_left * g_left / (h_left + config.lambda) +
                     g_right * g_right / (h_right + config.lambda) -
                     parent_score) -
                config.gamma;
            if (gain > local.gain) {
              local.gain = gain;
              local.feature = f;
              local.threshold = 0.5 * (v + v_next);
            }
          }
        }
        return local;
      },
      [](SplitCandidate acc, SplitCandidate part) {
        return part.gain > acc.gain ? part : acc;
      },
      use_pool);

  if (best.gain <= 0.0) return make_leaf();

  // The split test once per row, then a stable partition of every list's
  // segment by it, left rows first: each child's segment is then exactly
  // its rows in (value, row) order, as a fresh sort would leave them.
  const double* split_column = design.columns_.data() + best.feature * n;
  std::uint8_t* goes_left = design.goes_left_.data();
  std::size_t n_left = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const bool is_left = split_column[rows[i]] <= best.threshold;
    goes_left[rows[i]] = is_left ? 1 : 0;
    n_left += is_left ? 1 : 0;
  }
  if (n_left == 0 || n_left == count) return make_leaf();
  parallel::parallel_for(
      d + 1, /*grain=*/1,
      [&](std::size_t l_begin, std::size_t l_end) {
        for (std::size_t l = l_begin; l < l_end; ++l) {
          std::uint32_t* list = design.order_.data() + l * n;
          std::uint32_t* spill = design.spill_.data() + l * n;
          std::size_t to_left = begin, to_right = begin;
          for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t r = list[i];
            const std::size_t is_left = goes_left[r];
            list[to_left] = r;  // to_left <= i: never overwrites unread ids
            spill[to_right] = r;
            to_left += is_left;
            to_right += 1 - is_left;
          }
          std::copy(spill + begin, spill + to_right, list + to_left);
        }
      },
      use_pool);

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();  // placeholder; children may reallocate nodes_
  nodes_[node_index].is_leaf = false;
  nodes_[node_index].feature = best.feature;
  nodes_[node_index].threshold = best.threshold;
  nodes_[node_index].gain = best.gain;

  const std::int32_t left =
      build(design, grad, hess, config, begin, begin + n_left, depth + 1);
  const std::int32_t right =
      build(design, grad, hess, config, begin + n_left, end, depth + 1);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double RegressionTree::predict_row(const double* row) const {
  std::int32_t idx = 0;
  while (!nodes_[idx].is_leaf) {
    idx = (row[nodes_[idx].feature] <= nodes_[idx].threshold)
              ? nodes_[idx].left
              : nodes_[idx].right;
  }
  return nodes_[idx].value;
}

Vector RegressionTree::predict(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("RegressionTree::predict: not fitted");
  Vector out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict_row(x.row_ptr(i));
  return out;
}

void RegressionTree::set_leaf_value(std::int32_t leaf_id, double value) {
  if (leaf_id < 0 || static_cast<std::size_t>(leaf_id) >= n_leaves_) {
    throw std::out_of_range("RegressionTree::set_leaf_value: bad leaf id");
  }
  const std::int32_t node_index = leaf_node_index_[leaf_id];
  nodes_[node_index].value = value;
}

void RegressionTree::accumulate_feature_gains(
    std::vector<double>& gains) const {
  for (const auto& node : nodes_) {
    if (node.is_leaf) continue;
    if (node.feature >= gains.size()) {
      throw std::invalid_argument(
          "RegressionTree::accumulate_feature_gains: gains vector too small");
    }
    gains[node.feature] += node.gain;
  }
}

double RegressionTree::leaf_value(std::int32_t leaf_id) const {
  if (leaf_id < 0 || static_cast<std::size_t>(leaf_id) >= n_leaves_) {
    throw std::out_of_range("RegressionTree::leaf_value: bad leaf id");
  }
  return nodes_[leaf_node_index_[leaf_id]].value;
}

}  // namespace vmincqr::models
