#include "models/flat_forest.hpp"

#include <limits>
#include <stdexcept>

#include "models/ordered_boost.hpp"
#include "models/tree.hpp"

namespace vmincqr::models {

void FlatForest::add_tree(const std::vector<TreeNode>& nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("FlatForest::add_tree: empty tree");
  }
  const auto base = static_cast<std::int32_t>(feature_.size());
  const auto n = static_cast<std::int32_t>(nodes.size());
  for (const TreeNode& node : nodes) {
    if (!node.is_leaf && (node.left < 0 || node.left >= n || node.right < 0 ||
                          node.right >= n)) {
      throw std::invalid_argument("FlatForest::add_tree: dangling child");
    }
  }

  // BFS renumbering: a split's two children land in consecutive slots, so
  // the traversal needs only the left child's index (right = left + 1).
  // order[new_local] = original index; remap = the inverse.
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> remap(nodes.size(), -1);
  std::vector<std::int32_t> bfs_depth(nodes.size(), 0);
  order.reserve(nodes.size());
  order.push_back(0);
  remap[0] = 0;
  std::int32_t max_depth = 0;
  for (std::size_t q = 0; q < order.size(); ++q) {
    const std::int32_t old_i = order[q];
    const TreeNode& node = nodes[static_cast<std::size_t>(old_i)];
    if (node.is_leaf) continue;
    const std::int32_t d = bfs_depth[static_cast<std::size_t>(old_i)] + 1;
    max_depth = d > max_depth ? d : max_depth;
    for (const std::int32_t c : {node.left, node.right}) {
      remap[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(order.size());
      bfs_depth[static_cast<std::size_t>(c)] = d;
      order.push_back(c);
    }
  }
  // Nodes unreachable from the root (tolerated by the AoS layout) keep a
  // slot at the end, so the planes hold every node of the array.
  for (std::int32_t i = 0; i < n; ++i) {
    if (remap[static_cast<std::size_t>(i)] < 0) {
      remap[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(i);
    }
  }

  feature_.resize(feature_.size() + nodes.size());
  threshold_.resize(threshold_.size() + nodes.size());
  child_.resize(child_.size() + nodes.size());
  value_.resize(value_.size() + nodes.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const TreeNode& node = nodes[static_cast<std::size_t>(i)];
    const auto at = static_cast<std::size_t>(
        base + remap[static_cast<std::size_t>(i)]);
    if (node.is_leaf) {
      feature_[at] = 0;
      threshold_[at] = std::numeric_limits<double>::infinity();
      child_[at] = static_cast<std::int32_t>(at);  // self-loop
      value_[at] = node.value;
    } else {
      feature_[at] = static_cast<std::int32_t>(node.feature);
      threshold_[at] = node.threshold;
      child_[at] = base + remap[static_cast<std::size_t>(node.left)];
      value_[at] = 0.0;
    }
  }
  roots_.push_back(base);
  depth_.push_back(max_depth);
}

void FlatForest::clear() {
  feature_.clear();
  threshold_.clear();
  child_.clear();
  value_.clear();
  roots_.clear();
  depth_.clear();
}

namespace {

/// One arithmetic traversal step (see the class comment): `<=` stays at the
/// left child, `>` adds one to reach the adjacent right sibling; a leaf's
/// +infinity threshold makes the comparison false and its self-loop child
/// keeps the chain parked. The compare feeds a setcc + add — there is no
/// data-dependent branch to mispredict.
inline std::int32_t step(const double* row, const std::int32_t* feature,
                         const double* threshold, const std::int32_t* child,
                         std::int32_t idx) {
  return child[idx] +
         static_cast<std::int32_t>(row[feature[idx]] > threshold[idx]);
}

}  // namespace

void FlatForest::accumulate(const double* x, std::size_t n_rows,
                            std::size_t stride, double scale,
                            double* out) const {
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* value = value_.data();
  const std::size_t n_trees = roots_.size();
  // Each row walks eight trees abreast. Every chain is a serial
  // dependent-load sequence (~3 loads deep per step), so eight independent
  // chains keep the load ports busy instead of serializing on one chain's
  // round trip to the node planes. Each chain runs for its group's deepest
  // depth (a leaf's self-loop makes the extra steps no-ops). A last group of
  // fewer than eight trees fills its spare lanes with its own last tree and
  // adds only its real lanes. Each row then adds its leaf values in tree
  // order, the same operations in the same order as the scalar reference.
  for (std::size_t t = 0; t < n_trees; t += 8) {
    const std::size_t lanes = n_trees - t < 8 ? n_trees - t : 8;
    std::int32_t root[8];
    std::int32_t depth = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t tree = t + (k < lanes ? k : lanes - 1);
      root[k] = roots_[tree];
      depth = depth_[tree] > depth ? depth_[tree] : depth;
    }
    for (std::size_t r = 0; r < n_rows; ++r) {
      const double* row = x + r * stride;
      std::int32_t i0 = root[0], i1 = root[1], i2 = root[2], i3 = root[3];
      std::int32_t i4 = root[4], i5 = root[5], i6 = root[6], i7 = root[7];
      for (std::int32_t d = 0; d < depth; ++d) {
        i0 = step(row, feature, threshold, child, i0);
        i1 = step(row, feature, threshold, child, i1);
        i2 = step(row, feature, threshold, child, i2);
        i3 = step(row, feature, threshold, child, i3);
        i4 = step(row, feature, threshold, child, i4);
        i5 = step(row, feature, threshold, child, i5);
        i6 = step(row, feature, threshold, child, i6);
        i7 = step(row, feature, threshold, child, i7);
      }
      const std::int32_t leaf[8] = {i0, i1, i2, i3, i4, i5, i6, i7};
      double acc = out[r];
      for (std::size_t k = 0; k < lanes; ++k) acc += scale * value[leaf[k]];
      out[r] = acc;
    }
  }
}

void FlatObliviousForest::add_tree(const ObliviousTree& tree) {
  const std::size_t leaves = std::size_t{1} << tree.features.size();
  if (tree.leaf_values.size() != leaves ||
      tree.thresholds.size() != tree.features.size()) {
    throw std::invalid_argument(
        "FlatObliviousForest::add_tree: malformed oblivious tree");
  }
  if (level_offset_.empty()) {
    level_offset_.push_back(0);
    leaf_offset_.push_back(0);
  }
  for (std::size_t l = 0; l < tree.features.size(); ++l) {
    feature_.push_back(static_cast<std::int32_t>(tree.features[l]));
    threshold_.push_back(tree.thresholds[l]);
  }
  leaf_values_.insert(leaf_values_.end(), tree.leaf_values.begin(),
                      tree.leaf_values.end());
  level_offset_.push_back(feature_.size());
  leaf_offset_.push_back(leaf_values_.size());
}

void FlatObliviousForest::clear() {
  feature_.clear();
  threshold_.clear();
  leaf_values_.clear();
  level_offset_.clear();
  leaf_offset_.clear();
}

void FlatObliviousForest::accumulate(const double* x, std::size_t n_rows,
                                     std::size_t stride, double scale,
                                     double* out) const {
  const std::size_t trees = n_trees();
  for (std::size_t r0 = 0; r0 < n_rows; r0 += kTraversalRowBlock) {
    const std::size_t r1 = r0 + kTraversalRowBlock < n_rows
                               ? r0 + kTraversalRowBlock
                               : n_rows;
    for (std::size_t t = 0; t < trees; ++t) {
      const std::size_t lvl0 = level_offset_[t];
      const std::size_t lvl1 = level_offset_[t + 1];
      const double* leaves = leaf_values_.data() + leaf_offset_[t];
      for (std::size_t r = r0; r < r1; ++r) {
        const double* row = x + r * stride;
        std::size_t idx = 0;
        for (std::size_t l = lvl0; l < lvl1; ++l) {
          idx |= static_cast<std::size_t>(
                     row[feature_[l]] > threshold_[l])
                 << (l - lvl0);
        }
        out[r] += scale * leaves[idx];
      }
    }
  }
}

}  // namespace vmincqr::models
