// Unit tests for the data module: Dataset, splits, scaler, CFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "data/dataset.hpp"
#include "data/feature_select.hpp"
#include "data/scaler.hpp"
#include "data/split.hpp"
#include "models/elastic_net.hpp"
#include "models/gp.hpp"
#include "models/linear.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"

namespace vmincqr::data {
namespace {

Dataset make_small_dataset() {
  Matrix x{{1.0, 10.0, 5.0}, {2.0, 20.0, 6.0}, {3.0, 30.0, 7.0}};
  std::vector<FeatureInfo> info = {
      {"par_a", FeatureType::kParametric, 25.0, 0.0},
      {"rod_0_t0", FeatureType::kRodMonitor, 25.0, 0.0},
      {"rod_0_t24", FeatureType::kRodMonitor, 25.0, 24.0},
  };
  std::vector<LabelSeries> labels = {
      {0.0, 25.0, {0.5, 0.6, 0.7}},
      {24.0, 25.0, {0.51, 0.61, 0.71}},
      {24.0, 125.0, {0.52, 0.62, 0.72}},
  };
  return Dataset(std::move(x), std::move(info), std::move(labels));
}

TEST(Dataset, ValidatesShapes) {
  Matrix x(2, 2);
  std::vector<FeatureInfo> bad_info = {{"a", FeatureType::kParametric, 0, 0}};
  EXPECT_THROW(Dataset(x, bad_info, {}), std::invalid_argument);

  std::vector<FeatureInfo> info = {{"a", FeatureType::kParametric, 0, 0},
                                   {"b", FeatureType::kParametric, 0, 0}};
  std::vector<LabelSeries> bad_labels = {{0.0, 25.0, {0.1}}};
  EXPECT_THROW(Dataset(x, info, bad_labels), std::invalid_argument);
}

TEST(Dataset, LabelLookup) {
  const Dataset ds = make_small_dataset();
  EXPECT_DOUBLE_EQ(ds.label(24.0, 125.0).values[2], 0.72);
  EXPECT_TRUE(ds.has_label(0.0, 25.0));
  EXPECT_FALSE(ds.has_label(48.0, 25.0));
  EXPECT_THROW(static_cast<void>(ds.label(48.0, 25.0)), std::out_of_range);
}

TEST(Dataset, LabelKeysEnumeration) {
  const Dataset ds = make_small_dataset();
  EXPECT_EQ(ds.label_read_points(), (std::vector<double>{0.0, 24.0}));
  EXPECT_EQ(ds.label_temperatures(), (std::vector<double>{25.0, 125.0}));
}

TEST(Dataset, SelectFeaturesByPredicate) {
  const Dataset ds = make_small_dataset();
  const auto rods = ds.select_features([](const FeatureInfo& f) {
    return f.type == FeatureType::kRodMonitor;
  });
  EXPECT_EQ(rods, (std::vector<std::size_t>{1, 2}));
}

TEST(Dataset, TakeChipsSubsetsLabelsToo) {
  const Dataset ds = make_small_dataset();
  const Dataset sub = ds.take_chips({2, 0});
  EXPECT_EQ(sub.n_chips(), 2u);
  EXPECT_DOUBLE_EQ(sub.features()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.label(0.0, 25.0).values[0], 0.7);
  EXPECT_DOUBLE_EQ(sub.label(0.0, 25.0).values[1], 0.5);
}

TEST(Dataset, TakeFeaturesKeepsLabels) {
  const Dataset ds = make_small_dataset();
  const Dataset sub = ds.take_features({2});
  EXPECT_EQ(sub.n_features(), 1u);
  EXPECT_EQ(sub.feature_info(0).name, "rod_0_t24");
  EXPECT_EQ(sub.labels().size(), 3u);
}

TEST(Split, KFoldPartitionsIndices) {
  rng::Rng rng(1);
  const auto folds = k_fold(103, 4, rng);
  ASSERT_EQ(folds.size(), 4u);
  std::set<std::size_t> seen;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), 103u);
    for (auto i : fold.test) {
      EXPECT_TRUE(seen.insert(i).second) << "index in two test folds";
    }
    // Train and test are disjoint.
    std::set<std::size_t> train(fold.train.begin(), fold.train.end());
    for (auto i : fold.test) EXPECT_EQ(train.count(i), 0u);
  }
  EXPECT_EQ(seen.size(), 103u);
}

TEST(Split, KFoldBalancedSizes) {
  rng::Rng rng(2);
  const auto folds = k_fold(10, 4, rng);
  std::vector<std::size_t> sizes;
  for (const auto& f : folds) sizes.push_back(f.test.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 3, 3}));
}

TEST(Split, KFoldValidation) {
  rng::Rng rng(3);
  EXPECT_THROW(k_fold(10, 1, rng), std::invalid_argument);
  EXPECT_THROW(k_fold(3, 4, rng), std::invalid_argument);
}

TEST(Split, TrainCalibrationSplit) {
  rng::Rng rng(4);
  std::vector<std::size_t> idx(100);
  for (std::size_t i = 0; i < 100; ++i) idx[i] = i;
  const auto split = train_calibration_split(idx, 0.75, rng);
  EXPECT_EQ(split.train.size(), 75u);
  EXPECT_EQ(split.calibration.size(), 25u);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.calibration.begin(), split.calibration.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(Split, TrainCalibrationNeverEmptiesEitherSide) {
  rng::Rng rng(5);
  const auto split = train_calibration_split({0, 1}, 0.99, rng);
  EXPECT_EQ(split.train.size(), 1u);
  EXPECT_EQ(split.calibration.size(), 1u);
  EXPECT_THROW(train_calibration_split({0}, 0.5, rng), std::invalid_argument);
  std::vector<std::size_t> idx{0, 1, 2};
  EXPECT_THROW(train_calibration_split(idx, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_calibration_split(idx, 1.0, rng), std::invalid_argument);
}

TEST(Scaler, StandardizesColumns) {
  Matrix x{{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  StandardScaler scaler;
  Matrix z = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(stats::mean(z.col(c)), 0.0, 1e-12);
    EXPECT_NEAR(stats::stddev(z.col(c)), 1.0, 1e-12);
  }
}

TEST(Scaler, ConstantColumnMapsToZero) {
  Matrix x{{5.0}, {5.0}, {5.0}};
  StandardScaler scaler;
  Matrix z = scaler.fit_transform(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(Scaler, InverseRoundTrip) {
  rng::Rng rng(6);
  Matrix x(10, 3);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.normal(5.0, 3.0);
  }
  StandardScaler scaler;
  Matrix z = scaler.fit_transform(x);
  Matrix back = scaler.inverse_transform(z);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(back(r, c), x(r, c), 1e-10);
  }
}

TEST(Scaler, ErrorsWhenNotFitted) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(Matrix(1, 1)), std::logic_error);
  LabelScaler label_scaler;
  EXPECT_THROW(label_scaler.transform({1.0}), std::logic_error);
}

TEST(Scaler, LabelScalerRoundTrip) {
  LabelScaler scaler;
  Vector y{0.5, 0.6, 0.7, 0.9};
  scaler.fit(y);
  const Vector z = scaler.transform(y);
  const Vector back = scaler.inverse_transform(z);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(back[i], y[i], 1e-12);
  EXPECT_NEAR(scaler.inverse_transform(z[2]), y[2], 1e-12);
}

/// Runs `fit` and expects an always-on "precondition" contract violation.
template <typename Fit>
void expect_precondition(Fit&& fit, const std::string& what) {
  try {
    fit();
    ADD_FAILURE() << what << " accepted non-finite moments";
  } catch (const core::contract_violation& e) {
    EXPECT_EQ(e.kind(), "precondition") << what;
  }
}

TEST(Scaler, FitRejectsNonFiniteMomentsInEveryBuildType) {
  // Every entry is finite, but column 1's sums overflow the double range, so
  // its mean or scale would not be, and transform would turn it into NaN.
  rng::Rng rng(16);
  Matrix clean(64, 3);
  Vector y(64);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 3; ++c) clean(r, c) = rng.normal();
    y[r] = rng.normal(0.6, 0.02);
  }
  Matrix huge = clean;
  Vector huge_y(64);
  for (std::size_t r = 0; r < 64; ++r) {
    huge(r, 1) = rng.uniform(5e307, 1e308);
    huge_y[r] = rng.uniform(5e307, 1e308);
  }

  // A rejected fit keeps a fitted scaler as it was.
  StandardScaler scaler;
  scaler.fit(clean);
  const Vector means = scaler.means();
  const Vector scales = scaler.scales();
  expect_precondition([&] { scaler.fit(huge); }, "StandardScaler");
  EXPECT_EQ(scaler.means(), means);
  EXPECT_EQ(scaler.scales(), scales);
  LabelScaler label_scaler;
  label_scaler.fit(y);
  const LabelScalerParams label = label_scaler.export_params();
  expect_precondition([&] { label_scaler.fit(huge_y); }, "LabelScaler");
  EXPECT_EQ(label_scaler.export_params().mean, label.mean);
  EXPECT_EQ(label_scaler.export_params().scale, label.scale);

  // Every model that standardises its design refuses the column. A refit
  // that the label scaler rejects, after the width and the design scaler
  // have changed, leaves the model unfitted rather than half refitted.
  Matrix wide(64, 5);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 5; ++c) wide(r, c) = rng.normal();
  }
  std::vector<std::unique_ptr<models::Regressor>> standardising;
  standardising.push_back(std::make_unique<models::ElasticNetRegressor>());
  standardising.push_back(std::make_unique<models::LinearRegressor>());
  standardising.push_back(std::make_unique<models::GaussianProcessRegressor>());
  for (const auto& model : standardising) {
    expect_precondition([&] { model->fit(huge, y); }, model->name());
    EXPECT_FALSE(model->fitted()) << model->name();
    model->fit(clean, y);
    expect_precondition([&] { model->fit(wide, huge_y); }, model->name());
    EXPECT_FALSE(model->fitted()) << model->name();
    EXPECT_THROW((void)model->predict(wide), core::contract_violation)
        << model->name();
    EXPECT_THROW((void)model->predict(clean), core::contract_violation)
        << model->name();
  }
}

TEST(Cfs, MeritPrefersInformativeUncorrelatedSubsets) {
  rng::Rng rng(8);
  const std::size_t n = 200;
  Vector y(n), f0(n), f1(n), f2(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.normal();
    f0[i] = y[i] + rng.normal(0.0, 0.3);   // informative
    f1[i] = f0[i] + rng.normal(0.0, 0.05); // informative but redundant w/ f0
    f2[i] = rng.normal();                  // noise
  }
  Matrix x(n, 3);
  x.set_col(0, f0);
  x.set_col(1, f1);
  x.set_col(2, f2);
  const double merit_single = cfs_merit(x, y, {0});
  const double merit_redundant = cfs_merit(x, y, {0, 1});
  const double merit_noise = cfs_merit(x, y, {2});
  EXPECT_GT(merit_single, merit_redundant);
  EXPECT_GT(merit_single, merit_noise);
  EXPECT_THROW(cfs_merit(x, y, {}), std::invalid_argument);
  EXPECT_THROW(cfs_merit(x, y, {5}), std::invalid_argument);
}

TEST(Cfs, SelectFindsSignalAndAvoidsDuplicates) {
  rng::Rng rng(9);
  const std::size_t n = 300;
  Vector a = rng.normal_vector(n), b = rng.normal_vector(n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
  Matrix x(n, 5);
  x.set_col(0, a);
  Vector a_copy(n);
  for (std::size_t i = 0; i < n; ++i) a_copy[i] = a[i] + rng.normal(0.0, 0.01);
  x.set_col(1, a_copy);           // near-duplicate of col 0
  x.set_col(2, b);
  x.set_col(3, rng.normal_vector(n));  // noise
  x.set_col(4, rng.normal_vector(n));  // noise
  const auto selected = cfs_select(x, y, 2);
  ASSERT_EQ(selected.size(), 2u);
  // The two complementary signals (a-ish, b) must be picked over the
  // near-duplicate pair.
  const bool has_a = selected[0] == 0 || selected[0] == 1 ||
                     selected[1] == 0 || selected[1] == 1;
  const bool has_b =
      std::find(selected.begin(), selected.end(), 2u) != selected.end();
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

TEST(Cfs, SelectReturnsOrderedPrefixes) {
  // cfs_select(k) must be a prefix of cfs_select(k+1) — the experiment
  // harness relies on this to sweep k cheaply.
  rng::Rng rng(10);
  const std::size_t n = 120;
  Matrix x(n, 8);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.normal();
    for (std::size_t c = 0; c < 8; ++c) {
      x(i, c) = 0.3 * static_cast<double>(c) * y[i] + rng.normal();
    }
  }
  const auto k3 = cfs_select(x, y, 3);
  const auto k5 = cfs_select(x, y, 5);
  ASSERT_GE(k5.size(), k3.size());
  for (std::size_t i = 0; i < k3.size(); ++i) EXPECT_EQ(k3[i], k5[i]);
}

TEST(Cfs, TopCorrelatedRanksBySignal) {
  rng::Rng rng(11);
  const std::size_t n = 400;
  Vector y = rng.normal_vector(n);
  Matrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();                       // noise
    x(i, 1) = y[i] + rng.normal(0.0, 0.1);        // strong
    x(i, 2) = y[i] + rng.normal(0.0, 1.0);        // weak
  }
  const auto top = top_correlated(x, y, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
}

/// Per-round greedy CFS: each round copies every unused column and
/// correlates it with every selected column through stats::pearson. The
/// bit-exactness reference for cfs_select.
std::vector<std::size_t> cfs_select_reference(const Matrix& x, const Vector& y,
                                              std::size_t max_features) {
  if (x.empty() || max_features == 0) return {};
  const std::size_t budget = std::min<std::size_t>(max_features, x.cols());
  std::vector<double> rcf(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    rcf[j] = std::abs(stats::pearson(x.col(j), y));
  }
  std::vector<std::size_t> selected;
  std::vector<bool> used(x.cols(), false);
  std::size_t best0 = 0;
  for (std::size_t j = 1; j < x.cols(); ++j) {
    if (rcf[j] > rcf[best0]) best0 = j;
  }
  selected.push_back(best0);
  used[best0] = true;
  double sum_rcf = rcf[best0];
  double sum_rff = 0.0;
  std::vector<Vector> selected_cols = {x.col(best0)};
  while (selected.size() < budget) {
    double best_merit = -1.0;
    std::size_t best_j = x.cols();
    double best_add_rff = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (used[j]) continue;
      const Vector cj = x.col(j);
      double add_rff = 0.0;
      for (const auto& cs : selected_cols) {
        add_rff += std::abs(stats::pearson(cj, cs));
      }
      const auto k = static_cast<double>(selected.size() + 1);
      const double mean_rcf = (sum_rcf + rcf[j]) / k;
      const double pairs = k * (k - 1.0) / 2.0;
      const double mean_rff = pairs > 0.0 ? (sum_rff + add_rff) / pairs : 0.0;
      const double denom = std::sqrt(k + k * (k - 1.0) * mean_rff);
      const double merit = denom > 0.0 ? k * mean_rcf / denom : 0.0;
      if (merit > best_merit) {
        best_merit = merit;
        best_j = j;
        best_add_rff = add_rff;
      }
    }
    if (best_j == x.cols()) break;
    used[best_j] = true;
    selected.push_back(best_j);
    selected_cols.push_back(x.col(best_j));
    sum_rcf += rcf[best_j];
    sum_rff += best_add_rff;
  }
  return selected;
}

/// A random n x d design (d >= 4) whose label follows column 0 and, from
/// d = 8, column d/2, with the cases the greedy argmax must order exactly:
/// column d-1 duplicates column 0 and column d/2-1 duplicates column d/2
/// (their merits tie, so the lower index must win), columns 1, 26, 51, ...
/// are constant (r = 0 with everything), and column d-2 holds a NaN (a
/// non-finite denominator, so r = 0 too).
std::pair<Matrix, Vector> cfs_edge_design(std::size_t n, std::size_t d,
                                          std::uint64_t seed) {
  rng::Rng rng(seed);
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.normal();
  }
  const std::size_t b = d / 2;
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + (d >= 8 ? 0.7 * x(i, b) : 0.0) + 0.5 * rng.normal();
    x(i, d - 1) = x(i, 0);
    if (d >= 8) x(i, b - 1) = x(i, b);
    for (std::size_t j = 1; j < d - 2; j += 25) x(i, j) = 0.25 * (j % 7);
  }
  x(n / 2, d - 2) = std::numeric_limits<double>::quiet_NaN();
  return {std::move(x), std::move(y)};
}

TEST(Cfs, SelectMatchesPerRoundPearsonReference) {
  // cfs_select must pick exactly the columns the per-round pearson loop
  // picks, in the same order, ties and degenerate columns included. k = d
  // runs only where the reference's O(k^2 d n) cost stays small; at
  // d = 2868 it would take hours.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {6, 4}, {40, 300}, {117, 2868}};
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto [n, d] = shapes[s];
    const auto [x, y] = cfs_edge_design(n, d, 40 + s);
    std::vector<std::size_t> budgets = {1, 8, 10};
    if (d <= 300) budgets.push_back(d);
    for (const std::size_t k : budgets) {
      EXPECT_EQ(cfs_select(x, y, k), cfs_select_reference(x, y, k))
          << n << "x" << d << " k=" << k;
    }

    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t j = 0; j < d; ++j) {
      scored.emplace_back(std::abs(stats::pearson(x.col(j), y)), j);
    }
    std::stable_sort(
        scored.begin(), scored.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::size_t> ranked;
    for (const auto& entry : scored) ranked.push_back(entry.second);
    for (const std::size_t k : budgets) {
      const std::vector<std::size_t> want(
          ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(k, ranked.size())));
      EXPECT_EQ(top_correlated(x, y, k), want) << n << "x" << d << " k=" << k;
    }
  }
}

TEST(Cfs, EmptyAndBounds) {
  Matrix x(3, 2, 1.0);
  Vector y{1.0, 2.0, 3.0};
  EXPECT_TRUE(cfs_select(x, y, 0).empty());
  EXPECT_EQ(cfs_select(x, y, 10).size(), 2u);
  EXPECT_THROW(cfs_select(x, {1.0}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace vmincqr::data
