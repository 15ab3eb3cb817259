// Tests for the tree-based models: RegressionTree, GradientBoostedTrees
// (XGBoost-style), OrderedBoostedTrees (CatBoost-style).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "models/gbt.hpp"
#include "models/ordered_boost.hpp"
#include "models/tree.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::models {
namespace {

// Step function: y = 1 if x0 > 0 else -1 (trees nail this, linear cannot).
struct StepProblem {
  Matrix x;
  Vector y;
};

StepProblem make_step_problem(std::size_t n, double noise, std::uint64_t seed) {
  rng::Rng rng(seed);
  StepProblem p{Matrix(n, 3), Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) p.x(i, c) = rng.normal();
    p.y[i] = (p.x(i, 0) > 0.0 ? 1.0 : -1.0) + rng.normal(0.0, noise);
  }
  return p;
}

// For squared loss, boosting a tree on gradients g = pred - y with hess 1
// means a single tree fitted at pred = 0 should output ~mean(y) per leaf.
TEST(RegressionTree, SingleSplitOnStepFunction) {
  const auto p = make_step_problem(100, 0.0, 1);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];  // pred = 0
  TreeConfig config;
  config.max_depth = 1;
  config.lambda = 0.0;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  EXPECT_EQ(tree.n_leaves(), 2u);
  const Vector pred = tree.predict(p.x);
  for (std::size_t i = 0; i < p.y.size(); ++i) {
    EXPECT_NEAR(pred[i], p.y[i], 1e-9);
  }
}

TEST(RegressionTree, RespectsMaxDepth) {
  const auto p = make_step_problem(200, 0.3, 2);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 3;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  EXPECT_LE(tree.n_leaves(), 8u);
}

TEST(RegressionTree, MinSamplesLeafEnforced) {
  const auto p = make_step_problem(40, 0.3, 3);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 10;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  // Count training samples per leaf.
  std::vector<int> counts(tree.n_leaves(), 0);
  for (auto id : tree.train_leaf_ids()) {
    ASSERT_GE(id, 0);
    counts[static_cast<std::size_t>(id)]++;
  }
  for (int c : counts) EXPECT_GE(c, 10);
}

TEST(RegressionTree, ConstantTargetGivesSingleLeaf) {
  Matrix x(20, 2, 0.0);
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  Vector grad(20, -5.0), hess(20, 1.0);
  TreeConfig config;
  RegressionTree tree;
  tree.fit(x, grad, hess, config);
  EXPECT_EQ(tree.n_leaves(), 1u);
  EXPECT_NEAR(tree.predict(x)[0], 5.0 * 20.0 / (20.0 + config.lambda), 1e-9);
}

TEST(RegressionTree, LeafValueOverride) {
  const auto p = make_step_problem(50, 0.0, 4);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 1;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  ASSERT_EQ(tree.n_leaves(), 2u);
  tree.set_leaf_value(0, 42.0);
  EXPECT_DOUBLE_EQ(tree.leaf_value(0), 42.0);
  EXPECT_THROW(tree.set_leaf_value(5, 1.0), std::out_of_range);
}

TEST(RegressionTree, ValidatesInput) {
  RegressionTree tree;
  EXPECT_THROW(tree.fit(Matrix(0, 0), {}, {}, TreeConfig{}),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(Matrix(3, 1), Vector(2), Vector(3), TreeConfig{}),
               std::invalid_argument);
  EXPECT_THROW(tree.predict(Matrix(1, 1)), std::logic_error);
}

TEST(Gbt, FitsStepFunctionBetterThanConstant) {
  const auto train = make_step_problem(150, 0.2, 5);
  const auto test = make_step_problem(100, 0.2, 6);
  GradientBoostedTrees gbt;
  gbt.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, gbt.predict(test.x)), 0.8);
}

TEST(Gbt, TrainErrorDecreasesWithRounds) {
  const auto p = make_step_problem(120, 0.5, 7);
  GbtConfig few, many;
  few.n_rounds = 2;
  many.n_rounds = 50;
  GradientBoostedTrees a(few), b(many);
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  EXPECT_LT(stats::rmse(p.y, b.predict(p.x)),
            stats::rmse(p.y, a.predict(p.x)));
}

TEST(Gbt, PinballQuantilesBracketTheData) {
  rng::Rng rng(8);
  const std::size_t n = 400;
  Matrix x(n, 2);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    // Heteroscedastic: spread grows with |x0|.
    y[i] = x(i, 0) + rng.normal(0.0, 0.2 + 0.5 * std::abs(x(i, 0)));
  }
  GbtConfig lo_config, hi_config;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.05});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.95});
  GradientBoostedTrees lo(lo_config), hi(hi_config);
  lo.fit(x, y);
  hi.fit(x, y);
  const double cov =
      stats::interval_coverage(y, lo.predict(x), hi.predict(x));
  EXPECT_GT(cov, 0.80);
  EXPECT_LT(cov, 0.999);
}

TEST(Gbt, CloneAndValidation) {
  GbtConfig bad;
  bad.n_rounds = 0;
  EXPECT_THROW(GradientBoostedTrees{bad}, std::invalid_argument);
  const auto p = make_step_problem(50, 0.1, 9);
  GradientBoostedTrees gbt;
  gbt.fit(p.x, p.y);
  auto clone = gbt.clone_config();
  EXPECT_FALSE(clone->fitted());
  clone->fit(p.x, p.y);
  const Vector a = gbt.predict(p.x), b = clone->predict(p.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ObliviousTree, LeafIndexBitmask) {
  ObliviousTree tree;
  tree.features = {0, 1};
  tree.thresholds = {0.5, 0.5};
  tree.leaf_values = {10.0, 11.0, 12.0, 13.0};
  const double row_a[] = {0.0, 0.0};  // both <= thr -> leaf 0
  const double row_b[] = {1.0, 0.0};  // bit 0 set -> leaf 1
  const double row_c[] = {0.0, 1.0};  // bit 1 set -> leaf 2
  const double row_d[] = {1.0, 1.0};  // both -> leaf 3
  EXPECT_DOUBLE_EQ(tree.predict_row(row_a), 10.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_b), 11.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_c), 12.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_d), 13.0);
}

TEST(OrderedBoost, FitsStepFunction) {
  const auto train = make_step_problem(150, 0.2, 10);
  const auto test = make_step_problem(100, 0.2, 11);
  OrderedBoostedTrees cb;
  cb.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, cb.predict(test.x)), 0.8);
}

TEST(OrderedBoost, OrderedAndPlainBothLearn) {
  const auto train = make_step_problem(200, 0.3, 12);
  const auto test = make_step_problem(150, 0.3, 13);
  OrderedBoostConfig ordered_config, plain_config;
  ordered_config.ordered = true;
  plain_config.ordered = false;
  OrderedBoostedTrees ordered(ordered_config), plain(plain_config);
  ordered.fit(train.x, train.y);
  plain.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, ordered.predict(test.x)), 0.75);
  EXPECT_GT(stats::r_squared(test.y, plain.predict(test.x)), 0.75);
}

TEST(OrderedBoost, PinballQuantilesOrdered) {
  const auto p = make_step_problem(300, 0.5, 14);
  OrderedBoostConfig lo_config, hi_config;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.05});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.95});
  OrderedBoostedTrees lo(lo_config), hi(hi_config);
  lo.fit(p.x, p.y);
  hi.fit(p.x, p.y);
  const Vector lo_pred = lo.predict(p.x), hi_pred = hi.predict(p.x);
  EXPECT_LT(stats::mean(lo_pred), stats::mean(hi_pred));
  const double cov = stats::interval_coverage(p.y, lo_pred, hi_pred);
  EXPECT_GT(cov, 0.7);
}

TEST(OrderedBoost, DeterministicInSeed) {
  const auto p = make_step_problem(80, 0.2, 15);
  OrderedBoostedTrees a, b;
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  const Vector pa = a.predict(p.x), pb = b.predict(p.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(OrderedBoost, HandlesConstantFeatures) {
  Matrix x(30, 2, 1.0);  // all constant
  rng::Rng rng(16);
  Vector y = rng.normal_vector(30, 5.0, 1.0);
  OrderedBoostedTrees cb;
  cb.fit(x, y);
  // No usable splits: prediction must be near the unconditional mean.
  const Vector pred = cb.predict(x);
  EXPECT_NEAR(pred[0], stats::mean(y), 0.5);
}

TEST(OrderedBoost, ValidatesConfig) {
  OrderedBoostConfig bad;
  bad.depth = 0;
  EXPECT_THROW(OrderedBoostedTrees{bad}, std::invalid_argument);
  OrderedBoostConfig bad2;
  bad2.border_count = 0;
  EXPECT_THROW(OrderedBoostedTrees{bad2}, std::invalid_argument);
}

// --- bit-exactness against the sort-per-node oracle -------------------------

/// The exact builder RegressionTree::fit replaced, kept as a test oracle: every
/// node copies its rows, sorts them per feature by (x, row) and scans the
/// sorted order. Sequential; the first strict maximum over (feature, position)
/// wins, as in the library's feature-order reduce.
struct SortPerNodeOracle {
  const Matrix& x;
  const Vector& grad;
  const Vector& hess;
  const TreeConfig& config;
  std::vector<TreeNode> nodes;
  std::vector<std::int32_t> leaf_ids;
  std::int32_t n_leaves = 0;

  std::int32_t build(const std::vector<std::size_t>& rows, int depth) {
    double g_total = 0.0, h_total = 0.0;
    for (auto r : rows) {
      g_total += grad[r];
      h_total += hess[r];
    }
    const auto make_leaf = [&]() {
      TreeNode leaf;
      leaf.value = -g_total / (h_total + config.lambda);
      leaf.leaf_id = n_leaves++;
      nodes.push_back(leaf);
      for (auto r : rows) leaf_ids[r] = leaf.leaf_id;
      return static_cast<std::int32_t>(nodes.size() - 1);
    };
    if (depth >= config.max_depth ||
        rows.size() < 2 * config.min_samples_leaf || rows.size() < 2) {
      return make_leaf();
    }
    const double parent_score = g_total * g_total / (h_total + config.lambda);
    double best_gain = 0.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    for (std::size_t f = 0; f < x.cols(); ++f) {
      std::vector<std::size_t> sorted = rows;
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        if (x(a, f) != x(b, f)) return x(a, f) < x(b, f);
        return a < b;
      });
      double g_left = 0.0, h_left = 0.0;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        g_left += grad[sorted[i]];
        h_left += hess[sorted[i]];
        const double v = x(sorted[i], f);
        const double v_next = x(sorted[i + 1], f);
        if (v == v_next) continue;
        const std::size_t n_left = i + 1;
        if (n_left < config.min_samples_leaf ||
            sorted.size() - n_left < config.min_samples_leaf) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        if (h_left < config.min_child_weight ||
            h_right < config.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (g_left * g_left / (h_left + config.lambda) +
                                   g_right * g_right / (h_right + config.lambda) -
                                   parent_score) -
                            config.gamma;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
    if (best_gain <= 0.0) return make_leaf();
    std::vector<std::size_t> left_rows, right_rows;
    for (auto r : rows) {
      (x(r, best_feature) <= best_threshold ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return make_leaf();
    const auto index = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    nodes[index].is_leaf = false;
    nodes[index].feature = best_feature;
    nodes[index].threshold = best_threshold;
    nodes[index].gain = best_gain;
    const std::int32_t left = build(left_rows, depth + 1);
    const std::int32_t right = build(right_rows, depth + 1);
    nodes[index].left = left;
    nodes[index].right = right;
    return index;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A normal draw rounded to a grid of step 1 / resolution, so a feature
/// column holds many ties.
double on_grid(rng::Rng& rng, double resolution) {
  return std::round(resolution * rng.normal()) / resolution;
}

TEST(RegressionTreeOracle, MatchesSortPerNodeBuilderBitForBit) {
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    rng::Rng rng(seed);
    // Every 16th case crosses the pooled split-search gate (rows x cols >=
    // 4096); the rest are small enough to reach min_samples_leaf and
    // single-row nodes.
    const bool large = seed % 16 == 0;
    const auto n = static_cast<std::size_t>(large ? 700 : rng.uniform_int(2, 250));
    const auto d = static_cast<std::size_t>(large ? 7 : rng.uniform_int(1, 6));
    const double resolution = seed % 3 == 0 ? 1.0 : (seed % 3 == 1 ? 4.0 : 64.0);
    Matrix x(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        x(i, c) = (c == 1 && seed % 4 == 0) ? 2.5 : on_grid(rng, resolution);
      }
    }
    Vector grad(n), hess(n);
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = x(i, 0) > 0.0 ? -1.0 + 0.1 * rng.normal() : 0.5 * rng.normal();
      hess[i] = seed % 2 == 0 ? 1.0 : rng.uniform(0.1, 1.1);
    }
    TreeConfig config;
    config.max_depth = 1 + static_cast<int>(seed % 7);
    config.lambda = seed % 5 == 0 ? 0.0 : 1.0;
    config.gamma = seed % 6 == 0 ? 0.01 : 0.0;
    config.min_child_weight = seed % 4 == 1 ? 0.0 : (seed % 4 == 2 ? 3.5 : 1.0);
    config.min_samples_leaf = seed % 5 == 3 ? 5 : (seed % 5 == 4 ? 2 : 1);

    SortPerNodeOracle oracle{x, grad, hess, config, {},
                             std::vector<std::int32_t>(n, -1)};
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    oracle.build(all, 0);

    RegressionTree tree;
    tree.fit(x, grad, hess, config);
    const auto& nodes = tree.nodes();
    ASSERT_EQ(nodes.size(), oracle.nodes.size()) << "seed " << seed;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const TreeNode& got = nodes[k];
      const TreeNode& want = oracle.nodes[k];
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " node " << k);
      ASSERT_EQ(got.is_leaf, want.is_leaf);
      ASSERT_EQ(got.feature, want.feature);
      ASSERT_EQ(bits(got.threshold), bits(want.threshold));
      ASSERT_EQ(got.left, want.left);
      ASSERT_EQ(got.right, want.right);
      ASSERT_EQ(bits(got.value), bits(want.value));
      ASSERT_EQ(got.leaf_id, want.leaf_id);
      ASSERT_EQ(bits(got.gain), bits(want.gain));
    }
    ASSERT_EQ(tree.train_leaf_ids(), oracle.leaf_ids) << "seed " << seed;
  }
}

/// 64-bit FNV-1a over a stream of 64-bit words (little-endian bytes).
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (w >> (8 * byte)) & 0xFFU;
      state *= 0x100000001b3ULL;
    }
  }
  void real(double v) { word(bits(v)); }
};

/// 421 rows (not a multiple of 32) x 14 columns: thirteen columns on a 0.25
/// grid (heavy ties) and one constant column. 421 x 14 crosses the pooled
/// split-search gate, and 421 rows the GBT row-loop gate.
struct TieHeavyDesign {
  Matrix x = Matrix(421, 14);
  Vector y = Vector(421);
  TieHeavyDesign() {
    rng::Rng rng(2024);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t c = 0; c + 1 < x.cols(); ++c) x(i, c) = on_grid(rng, 4.0);
      x(i, x.cols() - 1) = 1.5;
      y[i] = 0.55 +
             0.01 * (x(i, 0) - 0.5 * x(i, 3) + 0.25 * x(i, 1) * x(i, 2)) +
             rng.normal(0.0, 0.004);
    }
  }
};

/// Refits at widths 1, 2 and 8; every digest must equal the pinned one.
void expect_pinned_at_widths(const std::function<std::uint64_t()>& digest,
                             std::uint64_t pinned) {
  for (const std::size_t width : {1, 2, 8}) {
    parallel::set_max_threads(width);
    const std::uint64_t got = digest();
    EXPECT_EQ(got, pinned) << "width " << width << ": digest 0x" << std::hex
                           << got;
  }
  parallel::set_max_threads(0);
}

// The pinned digests were recorded from the sort-per-node exact builder (the
// oracle above) and the thresholded per-(feature, border) row scans of the
// exact oblivious level search, before either was replaced.
TEST(TreeFitDigest, SquaredXgboostParamsArePinned) {
  const TieHeavyDesign design;
  expect_pinned_at_widths(
      [&] {
        GradientBoostedTrees model;
        model.fit(design.x, design.y);
        const GbtParams params = model.export_params();
        Fnv1a h;
        h.real(params.base_score);
        h.real(params.learning_rate);
        h.word(params.n_features);
        for (const auto& nodes : params.trees) {
          h.word(nodes.size());
          for (const TreeNode& node : nodes) {
            h.word(node.is_leaf ? 1U : 0U);
            h.word(node.feature);
            h.real(node.threshold);
            h.word(static_cast<std::uint64_t>(node.left));
            h.word(static_cast<std::uint64_t>(node.right));
            h.real(node.value);
            h.word(static_cast<std::uint64_t>(node.leaf_id));
            h.real(node.gain);
          }
        }
        return h.state;
      },
      0x38ee8a7110c0daf8ULL);
}

TEST(TreeFitDigest, OrderedCatboostParamsArePinned) {
  const TieHeavyDesign design;
  expect_pinned_at_widths(
      [&] {
        OrderedBoostConfig config;
        config.ordered = true;
        OrderedBoostedTrees model(config);
        model.fit(design.x, design.y);
        const OrderedBoostParams params = model.export_params();
        Fnv1a h;
        h.real(params.base_score);
        h.real(params.learning_rate);
        h.word(params.n_features);
        for (const ObliviousTree& tree : params.trees) {
          h.word(tree.features.size());
          for (const std::size_t f : tree.features) h.word(f);
          for (const double t : tree.thresholds) h.real(t);
          for (const double v : tree.leaf_values) h.real(v);
        }
        for (const double g : params.feature_gains) h.real(g);
        return h.state;
      },
      0x5987638a138d1b93ULL);
}

}  // namespace
}  // namespace vmincqr::models
