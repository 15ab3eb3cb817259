// Kernel-layer tests: bit-exact equivalence of the dense kernels with the
// scalar reference loops, flat-forest traversal equivalence, and the
// FeatureBinner invariant the ordered-boost level search relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/ops.hpp"
#include "models/flat_forest.hpp"
#include "models/gbt.hpp"
#include "models/ordered_boost.hpp"
#include "rng/rng.hpp"

using namespace vmincqr;

namespace {

/// Random buffer with exact zeros of both signs sprinkled in: the bit-exact
/// kernels must reproduce the reference skip-set, which only exact zeros
/// exercise, and a term that should have been skipped shows only as a
/// flipped sign on a zero (-0.0 + 0.0 == +0.0).
std::vector<double> random_with_zeros(std::size_t n, rng::Rng& rng) {
  std::vector<double> out(n);
  for (auto& v : out) {
    const double u = rng.uniform();
    v = u < 0.1 ? 0.0 : (u < 0.2 ? -0.0 : rng.normal());
  }
  return out;
}

/// Bitwise equality of two buffers. Unlike ==, this tells -0.0 from +0.0.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& shape) {
  ASSERT_EQ(got.size(), want.size()) << shape;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << shape << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// (m, k, n) shapes: the column counts straddle the kernels' 16-wide column
/// block (n < 16 runs single columns only, 16 is one block, 17 a block and
/// a single column, 33 two blocks and a single column), k = 0 leaves C as
/// the caller initialised it, and the fixed shapes include the MLP's full
/// 32-row chunk at d = 32, h = 16.
std::vector<std::array<std::size_t, 3>> kernel_shapes() {
  std::vector<std::array<std::size_t, 3>> shapes = {
      {3, 5, 4}, {7, 13, 9}, {8, 16, 16}, {17, 4, 1}, {32, 32, 16}};
  for (const std::size_t m : {1, 5, 33}) {
    for (const std::size_t k : {0, 1, 7}) {
      for (const std::size_t n : {1, 3, 4, 5, 8, 16, 17, 33}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  return shapes;
}

std::string shape_name(std::size_t m, std::size_t k, std::size_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::size_t d, std::uint64_t seed) {
  rng::Rng rng(seed);
  Problem p{linalg::Matrix(n, d), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      p.x(i, c) = rng.normal();
      signal += (c % 3 == 0 ? 0.3 : 0.05) * p.x(i, c);
    }
    p.y[i] = 0.55 + 0.01 * signal + rng.normal(0.0, 0.003);
  }
  return p;
}

// --- bitwise equality with the scalar reference loops ----------------------

TEST(KernelsExact, GemmMatchesScalarReferenceBitwise) {
  rng::Rng rng(11);
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto a = random_with_zeros(m * k, rng);
    const auto b = random_with_zeros(k * n, rng);
    auto c_ref = random_with_zeros(m * n, rng);  // non-zero caller init
    auto c_kernel = c_ref;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = a[i * k + kk];
        if (aik == 0.0) continue;  // the reference skip-set
        for (std::size_t j = 0; j < n; ++j) {
          c_ref[i * n + j] += aik * b[kk * n + j];
        }
      }
    }
    linalg::gemm(m, k, n, a.data(), k, b.data(), n, c_kernel.data(), n);
    expect_same_bits(c_kernel, c_ref, shape_name(m, k, n));
  }
}

TEST(KernelsExact, GemmAtMatchesScalarReferenceBitwise) {
  rng::Rng rng(12);
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto a = random_with_zeros(m * k, rng);
    const auto b = random_with_zeros(m * n, rng);
    auto c_ref = random_with_zeros(k * n, rng);  // non-zero caller init
    auto c_kernel = c_ref;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
          c_ref[kk * n + j] += a[i * k + kk] * b[i * n + j];  // every term
        }
      }
    }
    linalg::gemm_at(m, k, n, a.data(), k, b.data(), n, c_kernel.data(), n);
    expect_same_bits(c_kernel, c_ref, shape_name(m, k, n));
  }
}

TEST(KernelsExact, GemmAtSkipSetIsIdentityWithoutNegativeZero) {
  // Under gemm_at's precondition (C holds no -0.0, A finite) adding the
  // +-0.0 terms of B's exact zeros changes no bit, so the kernel equals the
  // loop that skips them.
  rng::Rng rng(15);
  for (const auto& [m, k, n] : kernel_shapes()) {
    const auto a = random_with_zeros(m * k, rng);
    const auto b = random_with_zeros(m * n, rng);
    auto c_ref = random_with_zeros(k * n, rng);
    for (double& v : c_ref) v = v == 0.0 ? 0.0 : v;  // -0.0 becomes +0.0
    auto c_kernel = c_ref;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
          const double bij = b[i * n + j];
          if (bij == 0.0) continue;  // the skip-set
          c_ref[kk * n + j] += a[i * k + kk] * bij;
        }
      }
    }
    linalg::gemm_at(m, k, n, a.data(), k, b.data(), n, c_kernel.data(), n);
    expect_same_bits(c_kernel, c_ref, shape_name(m, k, n));
  }
}

TEST(KernelsExact, GemvAndDotMatchScalarReferenceBitwise) {
  rng::Rng rng(13);
  const std::size_t m = 19, n = 23;
  const auto a = random_with_zeros(m * n, rng);
  const auto x = random_with_zeros(n, rng);
  std::vector<double> y_ref(m), y_kernel(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
    y_ref[i] = acc;
  }
  linalg::gemv(m, n, a.data(), n, x.data(), y_kernel.data());
  expect_same_bits(y_kernel, y_ref, "gemv");

  const std::vector<double> a_row0(a.begin(), a.begin() + n);
  double dot_ref = 0.0;
  for (std::size_t j = 0; j < n; ++j) dot_ref += x[j] * a_row0[j];
  expect_same_bits({linalg::dot(x, a_row0)}, {dot_ref}, "dot");
}

TEST(KernelsExact, RowSqDistsMatchesScalarReferenceBitwise) {
  rng::Rng rng(14);
  const std::size_t d = 9, nb = 11;
  const auto a = random_with_zeros(d, rng);
  const auto b = random_with_zeros(nb * d, rng);
  std::vector<double> out_ref(nb), out_kernel(nb);
  for (std::size_t j = 0; j < nb; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = a[c] - b[j * d + c];
      acc += diff * diff;
    }
    out_ref[j] = acc;
  }
  linalg::row_sq_dists(a.data(), d, b.data(), d, nb, out_kernel.data());
  expect_same_bits(out_kernel, out_ref, "row_sq_dists");
}

// --- flat forests -----------------------------------------------------------

/// The AoS reference: the base score, then tree by tree in round order the
/// learning rate times the leaf a pointer-chasing walk reaches.
double gbt_reference(const models::GbtParams& params, const double* row) {
  double want = params.base_score;
  for (const auto& nodes : params.trees) {
    std::size_t idx = 0;
    while (!nodes[idx].is_leaf) {
      idx = row[nodes[idx].feature] <= nodes[idx].threshold
                ? static_cast<std::size_t>(nodes[idx].left)
                : static_cast<std::size_t>(nodes[idx].right);
    }
    want += params.learning_rate * nodes[idx].value;
  }
  return want;
}

/// Root-to-deepest-leaf edges of the subtree at `idx`.
std::size_t tree_depth(const std::vector<models::TreeNode>& nodes,
                       std::size_t idx = 0) {
  if (nodes[idx].is_leaf) return 0;
  return 1 + std::max(
                 tree_depth(nodes, static_cast<std::size_t>(nodes[idx].left)),
                 tree_depth(nodes, static_cast<std::size_t>(nodes[idx].right)));
}

TEST(FlatForest, GbtPredictMatchesPerTreeTraversal) {
  const Problem p = make_problem(300, 6, 21);
  models::GbtConfig config;
  config.n_rounds = 12;
  models::GradientBoostedTrees model(config);
  model.fit(p.x, p.y);

  const models::GbtParams params = model.export_params();
  const linalg::Vector got = model.predict(p.x);
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    ASSERT_EQ(got[i], gbt_reference(params, p.x.row_ptr(i))) << "row " << i;
  }
}

TEST(FlatForest, EveryBatchSizeMatchesPerTreeTraversalBitwise) {
  // 13 trees: one group of eight walked abreast, then a group of five whose
  // three spare lanes repeat its last tree and must add nothing. Every batch
  // size from 1 to 17 rows, and 263 rows (a 256-row shard, then 7 rows).
  Problem p = make_problem(263, 6, 23);
  // Labels near zero, so a row's partial sums change binade from tree to
  // tree and the order of its additions shows in the bits. Around 0.55
  // every partial sum stays in [0.5, 1), where each addition rounds its
  // term to one fixed grid, and any order gives the same sum.
  for (std::size_t i = 0; i < p.y.size(); ++i) p.y[i] -= 0.55;
  models::GbtConfig config;
  config.n_rounds = 13;
  config.tree.min_samples_leaf = 20;  // the trees stop at different depths
  models::GradientBoostedTrees model(config);
  model.fit(p.x, p.y);

  const models::GbtParams params = model.export_params();
  ASSERT_EQ(params.trees.size(), 13u);
  std::set<std::size_t> depths;
  for (const auto& nodes : params.trees) depths.insert(tree_depth(nodes));
  ASSERT_GT(depths.size(), 1u) << "the trees must differ in depth";

  std::vector<std::size_t> batch_sizes;
  for (std::size_t rows = 1; rows <= 17; ++rows) batch_sizes.push_back(rows);
  batch_sizes.push_back(p.x.rows());
  for (const std::size_t rows : batch_sizes) {
    for (std::size_t begin = 0; begin < p.x.rows(); begin += rows) {
      const std::size_t end = std::min(begin + rows, p.x.rows());
      const linalg::Vector got = model.predict(p.x.row_block(begin, end));
      for (std::size_t i = begin; i < end; ++i) {
        const double want = gbt_reference(params, p.x.row_ptr(i));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i - begin]),
                  std::bit_cast<std::uint64_t>(want))
            << rows << "-row batches, row " << i << ": " << got[i - begin]
            << " vs " << want;
      }
    }
  }
}

TEST(FlatForest, OrderedBoostPredictMatchesPerTreeTraversal) {
  const Problem p = make_problem(280, 5, 22);
  models::OrderedBoostConfig config;
  config.n_rounds = 10;
  models::OrderedBoostedTrees model(config);
  model.fit(p.x, p.y);

  const models::OrderedBoostParams params = model.export_params();
  const linalg::Vector got = model.predict(p.x);
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    double want = params.base_score;
    for (const auto& tree : params.trees) {
      want += params.learning_rate * tree.predict_row(p.x.row_ptr(i));
    }
    ASSERT_EQ(got[i], want) << "row " << i;
  }
}

// --- FeatureBinner edge cases -----------------------------------------------

TEST(FeatureBinner, ConstantFeatureGetsSingleBin) {
  // compute_borders gives a constant feature no borders: whatever its value,
  // every row lands in bin 0 and the level search never splits it.
  linalg::Matrix x(40, 2);
  rng::Rng rng(31);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = 3.25;  // constant
    x(i, 1) = rng.normal();
  }
  models::FeatureBinner binner;
  binner.import_edges({{}, {-0.5, 0.0, 0.5}});
  EXPECT_TRUE(binner.edges(0).empty());
  EXPECT_EQ(binner.bin_of(0, -1e300), 0u);
  EXPECT_EQ(binner.bin_of(0, 1e300), 0u);
  const auto codes = binner.bin(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(codes[i * 2 + 0], 0u);
    EXPECT_LE(codes[i * 2 + 1], 3u);
  }
}

TEST(FeatureBinner, BinOfAgreesWithEdgeComparisonIncludingTies) {
  // The split-equivalence invariant: bin_of(f, v) <= b  <=>  v <= edge b,
  // exercised with values exactly ON the edges (ties: the edges sit on the
  // same 0.25 grid as the values), between them and beyond both ends.
  const std::vector<double> edges = {-1.0, -0.25, 0.0, 0.5, 1.75};
  models::FeatureBinner binner;
  binner.import_edges({edges});
  std::vector<double> probes = {-1e9, 1e9, -0.0};
  for (int q = -12; q <= 12; ++q) probes.push_back(0.25 * q);
  for (const double e : edges) {
    probes.push_back(std::nextafter(e, -1e300));
    probes.push_back(std::nextafter(e, 1e300));
  }
  for (const double v : probes) {
    const std::uint16_t code = binner.bin_of(0, v);
    for (std::size_t b = 0; b < edges.size(); ++b) {
      EXPECT_EQ(code <= b, v <= edges[b]) << "value " << v << " vs edge " << b;
    }
  }
}

TEST(FeatureBinner, ImportEdgesRejectsUnsortedAndNonFinite) {
  models::FeatureBinner binner;
  EXPECT_THROW(binner.import_edges({{1.0, 0.5}}), std::invalid_argument);
  EXPECT_THROW(binner.import_edges({{0.0, std::nan("")}}),
               std::invalid_argument);
}

}  // namespace
