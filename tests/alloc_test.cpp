// Serve-path allocation pins: the exact number of heap allocations
// VminPredictor::from_bytes and predict_batch (and predict_interval for the
// interval methods a bundle does not carry) perform, per bundle and batch
// size, at widths 1, 2 and 8.
//
// This binary replaces every replaceable global `operator new` form (plain,
// array, aligned, nothrow) with a counting wrapper, so it is its own
// executable. The counts are today's, not zero: a change that adds an
// allocation to the serve path (a per-row temporary, a by-value container
// copy, a scratch buffer moved into a loop) fails here on every host, and a
// change that removes one updates the table on purpose. The batch sizes
// straddle the 16-row pool threshold, the 64-chunk auto grain and the
// 256-row serve shard.
#include <gtest/gtest.h>

#include <array>
#include <atomic>  // vmincqr-lint: allow(atomic-outside-parallel)
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "conformal/cv_plus.hpp"
#include "conformal/mondrian.hpp"
#include "conformal/normalized.hpp"
#include "conformal/split_cp.hpp"
#include "core/pipeline.hpp"
#include "models/factory.hpp"
#include "models/region.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"
#include "silicon/dataset_gen.hpp"

namespace {

// Relaxed is enough: a pool lane's allocations happen-before ThreadPool::run
// returns to the caller, which is where the count is read.
// vmincqr-lint: allow(raw-thread)
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a non-zero multiple of the alignment.
  const std::size_t rounded =
      size == 0 ? alignment : (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked(counted_malloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_malloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(counted_aligned(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace vmincqr;

namespace {

constexpr std::array<std::size_t, 10> kBatchRows = {1,   2,   15,  16,  64,
                                                    65,  255, 256, 257, 1024};
constexpr std::array<std::size_t, 3> kWidths = {1, 2, 8};
constexpr std::size_t kFeatures = 13;

/// Expected counts for one bundle: one from_bytes decode (0 for methods the
/// codec does not carry), then one call per kBatchRows entry.
struct Pins {
  std::uint64_t from_bytes = 0;
  std::array<std::uint64_t, kBatchRows.size()> per_batch{};
};

template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::string render(const Pins& pins) {
  std::ostringstream os;
  os << "{" << pins.from_bytes << ", {";
  for (std::size_t i = 0; i < pins.per_batch.size(); ++i) {
    os << (i == 0 ? "" : ", ") << pins.per_batch[i];
  }
  os << "}}";
  return os.str();
}

struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  Problem p{linalg::Matrix(n, kFeatures), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < kFeatures; ++c) {
      p.x(i, c) = rng.normal();
      signal += (c % 3 == 0 ? 0.3 : 0.05) * p.x(i, c);
    }
    p.y[i] = 0.55 + 0.01 * signal + rng.normal(0.0, 0.003);
  }
  return p;
}

/// The leading kBatchRows[i] rows of `source`, one matrix per batch size,
/// built before any counting starts.
std::vector<linalg::Matrix> batches_of(const linalg::Matrix& source) {
  std::vector<linalg::Matrix> batches;
  for (const std::size_t rows : kBatchRows) {
    batches.push_back(source.row_block(0, rows));
  }
  return batches;
}

const std::vector<linalg::Matrix>& fresh_batches() {
  static const std::vector<linalg::Matrix> batches =
      batches_of(make_problem(kBatchRows.back(), 11).x);
  return batches;
}

/// Fits `model` on 200 rows of the shared problem.
void fit_shared(models::IntervalRegressor& model) {
  const Problem train = make_problem(200, 7);
  model.fit(train.x, train.y);
}

/// Fits `model` as fit_shared does and wraps it in an identity-column bundle
/// (13 dataset columns, all selected).
std::vector<std::uint8_t> encode_identity_bundle(
    std::unique_ptr<models::IntervalRegressor> model) {
  fit_shared(*model);
  artifact::VminBundle bundle;
  bundle.label = model->name();
  for (std::size_t c = 0; c < kFeatures; ++c) {
    bundle.dataset_columns.push_back(c);
    bundle.selected_features.push_back(c);
  }
  bundle.predictor = std::move(model);
  return artifact::encode_bundle(bundle);
}

/// At every width: one warm-up decode and batch (the pool starts lazily),
/// then the counted decode and one counted predict_batch per batch size.
void expect_serve_pins(const std::vector<std::uint8_t>& bytes,
                       const std::vector<linalg::Matrix>& batches,
                       const Pins& expected) {
  ThreadOverrideGuard restore;
  for (const std::size_t width : kWidths) {
    parallel::set_max_threads(width);
    const auto predictor = serve::VminPredictor::from_bytes(bytes);
    (void)predictor.predict_batch(batches.back());
    Pins got;
    got.from_bytes = allocations_of(
        [&] { (void)serve::VminPredictor::from_bytes(bytes); });
    for (std::size_t i = 0; i < batches.size(); ++i) {
      got.per_batch[i] =
          allocations_of([&] { (void)predictor.predict_batch(batches[i]); });
    }
    EXPECT_EQ(render(got), render(expected)) << "width " << width;
  }
}

/// Same protocol through predict_interval, for fitted interval methods a
/// bundle does not carry (from_bytes stays 0).
void expect_interval_pins(const models::IntervalRegressor& model,
                          const std::vector<linalg::Matrix>& batches,
                          const Pins& expected) {
  ThreadOverrideGuard restore;
  for (const std::size_t width : kWidths) {
    parallel::set_max_threads(width);
    (void)model.predict_interval(batches.back());
    Pins got;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      got.per_batch[i] =
          allocations_of([&] { (void)model.predict_interval(batches[i]); });
    }
    EXPECT_EQ(render(got), render(expected)) << "width " << width;
  }
}

const core::MiscoverageAlpha kAlpha{0.1};

std::unique_ptr<models::IntervalRegressor> cqr_over(models::ModelKind kind) {
  return std::make_unique<conformal::ConformalizedQuantileRegressor>(
      kAlpha, models::make_quantile_pair(kind, kAlpha));
}

TEST(ServeAllocations, CqrLinear) {
  expect_serve_pins(encode_identity_bundle(cqr_over(models::ModelKind::kLinear)),
                    fresh_batches(), {14, {10, 10, 10, 11, 11, 11, 11, 11, 20, 38}});
}

TEST(ServeAllocations, CqrXgboost) {
  // Decoding flattens each tree once, into the ensemble's forest: a decoded
  // RegressionTree keeps no single-tree copy of its planes.
  expect_serve_pins(
      encode_identity_bundle(cqr_over(models::ModelKind::kXgboost)),
      fresh_batches(), {1336, {4, 4, 4, 5, 5, 5, 5, 7, 10, 22}});
}

TEST(ServeAllocations, CqrCatboost) {
  expect_serve_pins(
      encode_identity_bundle(cqr_over(models::ModelKind::kCatboost)),
      fresh_batches(), {698, {4, 4, 4, 5, 5, 5, 5, 7, 10, 22}});
}

TEST(ServeAllocations, CqrMlp) {
  expect_serve_pins(encode_identity_bundle(cqr_over(models::ModelKind::kMlp)),
                    fresh_batches(), {18, {12, 12, 12, 13, 13, 13, 13, 15, 26, 54}});
}

TEST(ServeAllocations, GpInterval) {
  models::GpIntervalRegressor model(kAlpha);
  fit_shared(model);
  expect_interval_pins(model, fresh_batches(),
                       {0, {7, 8, 21, 22, 72, 41, 72, 72, 60, 72}});
}

TEST(ServeAllocations, SplitCp) {
  conformal::SplitConformalRegressor model(
      kAlpha, models::make_point_regressor(models::ModelKind::kXgboost));
  fit_shared(model);
  expect_interval_pins(model, fresh_batches(),
                       {0, {3, 3, 3, 3, 3, 3, 3, 4, 4, 4}});
}

TEST(ServeAllocations, NormalizedCp) {
  conformal::NormalizedConformalRegressor model(
      kAlpha, models::make_point_regressor(models::ModelKind::kLinear),
      models::make_point_regressor(models::ModelKind::kLinear));
  fit_shared(model);
  expect_interval_pins(model, fresh_batches(),
                       {0, {10, 10, 10, 10, 10, 10, 10, 10, 10, 10}});
}

// The non-identity serve path (one take_cols gather), on the
// screen bundle serve_test's fixture builds: CQR-linear over 6 CFS-selected
// columns of a wide monitor design.
TEST(ServeAllocations, FitScreenBundle) {
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 48;
  gen_config.seed = 321;
  const auto generated = silicon::generate_dataset(gen_config);
  const core::Scenario scenario{48.0, 25.0, core::FeatureSet::kBoth};
  const auto data = core::assemble_scenario(generated.dataset, scenario);
  auto screen = core::fit_screen(data, models::ModelKind::kLinear,
                                 core::PipelineConfig{}, 6);
  const auto bytes = artifact::encode_bundle(
      core::make_screen_bundle(scenario, data, std::move(screen)));
  // Chips cycle through the 48 characterized rows.
  linalg::Matrix tiled(kBatchRows.back(), data.x.cols());
  for (std::size_t i = 0; i < tiled.rows(); ++i) {
    for (std::size_t c = 0; c < tiled.cols(); ++c) {
      tiled(i, c) = data.x(i % data.x.rows(), c);
    }
  }
  expect_serve_pins(bytes, batches_of(tiled),
                    {14, {11, 11, 11, 12, 12, 12, 12, 12, 21, 39}});
}

TEST(ServeAllocations, CvPlusPredictInterval) {
  conformal::CvPlusRegressor model(
      kAlpha, models::make_point_regressor(models::ModelKind::kXgboost));
  fit_shared(model);
  expect_interval_pins(model, fresh_batches(),
                       {0, {11, 13, 40, 42, 138, 76, 138, 143, 119, 143}});
}

int sign_group(const double* row, std::size_t) { return row[0] > 0.0 ? 1 : 0; }

TEST(ServeAllocations, MondrianPredictInterval) {
  conformal::MondrianCqr model(
      kAlpha, models::make_quantile_pair(models::ModelKind::kLinear, kAlpha),
      sign_group);
  fit_shared(model);
  expect_interval_pins(model, fresh_batches(),
                       {0, {8, 8, 8, 8, 8, 8, 8, 8, 8, 8}});
}

}  // namespace
