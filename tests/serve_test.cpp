// Serve-layer tests: VminPredictor must reproduce fit-time intervals from a
// reloaded artifact alone, be invariant to batching, reject malformed inputs
// at the tester, and serve the benchmark's CQR-XGBoost bundle bit for bit as
// pinned.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "core/pipeline.hpp"
#include "data/scaler.hpp"
#include "linalg/kernels.hpp"
#include "models/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"
#include "silicon/dataset_gen.hpp"
#include "stats/metrics.hpp"

using namespace vmincqr;

namespace {

struct Fitted {
  core::ScenarioData data;
  linalg::Matrix reference_design;  ///< bundle dataset columns, fit order
  linalg::Vector reference_lower;
  linalg::Vector reference_upper;
  std::vector<std::uint8_t> bytes;
};

/// Fits a CQR screen on the characterization population, records its
/// in-memory predictions, and encodes the bundle — the serve tests then work
/// from the bytes alone.
Fitted fit_and_encode() {
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 48;
  gen_config.seed = 321;
  const auto generated = silicon::generate_dataset(gen_config);
  const core::Scenario scenario{48.0, 25.0, core::FeatureSet::kBoth};
  auto data = core::assemble_scenario(generated.dataset, scenario);
  core::PipelineConfig config;
  auto screen =
      core::fit_screen(data, models::ModelKind::kLinear, config, 6);

  const linalg::Matrix design = data.x;
  const auto band =
      screen.predictor->predict_interval(design.take_cols(screen.selected));
  auto bundle = core::make_screen_bundle(scenario, data, std::move(screen));
  auto bytes = artifact::encode_bundle(bundle);
  return {std::move(data), design, band.lower, band.upper, std::move(bytes)};
}

const Fitted& fixture() {
  static const Fitted fitted = fit_and_encode();
  return fitted;
}

TEST(ServePredictor, ReproducesFitTimeIntervalsBitExact) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto served = predictor.predict_batch(f.reference_design);
  ASSERT_EQ(served.size(), f.reference_design.rows());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].lower, f.reference_lower[i]) << "chip " << i;
    EXPECT_EQ(served[i].upper, f.reference_upper[i]) << "chip " << i;
  }
}

TEST(ServePredictor, BatchingIsInvariant) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto full = predictor.predict_batch(f.reference_design);
  // Serving chips one at a time must agree with the full batch exactly.
  for (std::size_t i = 0; i < f.reference_design.rows(); i += 7) {
    const auto single = predictor.predict_batch(
        f.reference_design.take_rows({i}));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].lower, full[i].lower) << "chip " << i;
    EXPECT_EQ(single[0].upper, full[i].upper) << "chip " << i;
  }
}

TEST(ServePredictor, InfoReportsBundleMetadata) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto info = predictor.info();
  EXPECT_EQ(info.format_version, artifact::kFormatVersion);
  EXPECT_EQ(info.label, "CQR Linear Regression");
  EXPECT_EQ(info.miscoverage, 0.1);
  EXPECT_EQ(info.scenario.read_point_hours, 48.0);
  EXPECT_EQ(info.scenario.temperature_c, 25.0);
  EXPECT_EQ(info.n_dataset_columns, f.data.columns.size());
  EXPECT_EQ(info.n_selected_features, 6u);
  EXPECT_EQ(predictor.expected_features(), f.data.columns.size());
}

TEST(ServePredictor, RejectsColumnCountMismatch) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const linalg::Matrix narrow(3, predictor.expected_features() - 1);
  EXPECT_THROW((void)predictor.predict_batch(narrow), std::invalid_argument);
}

TEST(ServePredictor, RejectsEmptyBatch) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const linalg::Matrix empty(0, predictor.expected_features());
  EXPECT_THROW((void)predictor.predict_batch(empty), std::invalid_argument);
}

TEST(ServePredictor, RejectsBundleWithoutPredictor) {
  artifact::VminBundle bundle;
  bundle.dataset_columns = {0, 1};
  bundle.selected_features = {0};
  EXPECT_THROW(serve::VminPredictor predictor(std::move(bundle)),
               std::invalid_argument);
}

TEST(ServePredictor, RejectsOutOfRangeSelection) {
  const core::MiscoverageAlpha level{0.1};
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      level, models::make_quantile_pair(models::ModelKind::kLinear, level));
  artifact::VminBundle bundle;
  bundle.dataset_columns = {0, 1};
  bundle.selected_features = {5};  // out of range for two columns
  bundle.predictor = std::move(cqr);
  EXPECT_THROW(serve::VminPredictor predictor(std::move(bundle)),
               std::invalid_argument);
}

TEST(ServePredictor, AppliesSavedInputScaler) {
  const Fitted& f = fixture();
  // Graft a nontrivial scaler onto the decoded bundle, then verify the serve
  // path applies exactly the same transform as a StandardScaler restored from
  // the same params: scaled.predict(x) == unscaled.predict(transform(x)).
  auto bundle = artifact::decode_bundle(f.bytes);
  const std::size_t width = bundle.dataset_columns.size();
  data::ScalerParams params;
  params.means.assign(width, 0.25);
  params.scales.assign(width, 1.5);
  bundle.has_input_scaler = true;
  bundle.input_scaler = params;
  const serve::VminPredictor scaled(std::move(bundle));

  data::StandardScaler reference_scaler;
  reference_scaler.import_params(params);
  const auto unscaled = serve::VminPredictor::from_bytes(f.bytes);
  const auto expected =
      unscaled.predict_batch(reference_scaler.transform(f.reference_design));
  const auto served = scaled.predict_batch(f.reference_design);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].lower, expected[i].lower) << "chip " << i;
    EXPECT_EQ(served[i].upper, expected[i].upper) << "chip " << i;
  }
}

TEST(ServePredictor, LoadFileMatchesFromBytes) {
  const Fitted& f = fixture();
  const std::string path = ::testing::TempDir() + "/serve_roundtrip.vqa";
  artifact::save_artifact(artifact::decode_bundle(f.bytes), path);
  const auto from_file = serve::VminPredictor::load_file(path);
  const auto from_bytes = serve::VminPredictor::from_bytes(f.bytes);
  const auto a = from_file.predict_batch(f.reference_design);
  const auto b = from_bytes.predict_batch(f.reference_design);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lower, b[i].lower);
    EXPECT_EQ(a[i].upper, b[i].upper);
  }
}

TEST(ServePredictor, LoadFileRejectsMissingPath) {
  EXPECT_THROW((void)serve::VminPredictor::load_file(
                   ::testing::TempDir() + "/does_not_exist.vqa"),
               artifact::ArtifactError);
}

// --- the benchmark's serve bundle, pinned -----------------------------------
//
// The 13-column CQR-XGBoost bundle that perfbench's serve_narrow workload
// serves, trained on 2000 rows of the problem below. Its size, the coverage
// and mean width of a 4096-row batch, and an FNV-1a digest of every served
// bound are pinned exactly at widths 1, 2 and 8: any change to the fit, the
// calibration, the codec or the traversal that moves one bound by one ulp
// fails here, on every host.

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::size_t d) {
  rng::Rng rng(7);
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

/// 64-bit FNV-1a over the bits of every served bound, lower then upper.
std::uint64_t interval_digest(
    const std::vector<serve::IntervalPrediction>& served) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    const auto w = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& interval : served) {
    mix(interval.lower);
    mix(interval.upper);
  }
  return h;
}

TEST(ServePredictor, BenchmarkXgboostBundleServesPinnedIntervals) {
  constexpr std::size_t kFeatures = 13;
  const Problem train = make_problem(2000, kFeatures);
  // The batch draws from the same seed, so its first 2000 rows are the
  // training rows: the pinned coverage is partly in-sample by construction.
  const Problem batch = make_problem(4096, kFeatures);

  std::vector<std::uint8_t> bytes;
  {
    // The pins are bit-exact-tier values, whatever the ambient policy.
    const linalg::KernelPolicyGuard policy(linalg::KernelPolicy::kBitExact);
    const core::MiscoverageAlpha alpha{0.1};
    auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
        alpha, models::make_quantile_pair(models::ModelKind::kXgboost, alpha));
    cqr->fit(train.x, train.y);
    artifact::VminBundle bundle;
    bundle.label = cqr->name();
    for (std::size_t c = 0; c < kFeatures; ++c) {
      bundle.dataset_columns.push_back(c);
      bundle.selected_features.push_back(c);
    }
    bundle.predictor = std::move(cqr);
    bytes = artifact::encode_bundle(bundle);
  }
  EXPECT_EQ(bytes.size(), 356189u);
  const auto predictor = serve::VminPredictor::from_bytes(bytes);

  for (const std::size_t width : {1, 2, 8}) {
    parallel::set_max_threads(width);
    const auto served = predictor.predict_batch(batch.x);
    ASSERT_EQ(served.size(), batch.y.size());
    linalg::Vector lower(served.size());
    linalg::Vector upper(served.size());
    std::size_t covered = 0;
    for (std::size_t i = 0; i < served.size(); ++i) {
      lower[i] = served[i].lower;
      upper[i] = served[i].upper;
      if (batch.y[i] >= lower[i] && batch.y[i] <= upper[i]) ++covered;
    }
    EXPECT_EQ(covered, 3821u) << "width " << width;
    EXPECT_EQ(stats::mean_interval_length(lower, upper), 0x1.e812705be37d1p-7)
        << "width " << width;
    const std::uint64_t digest = interval_digest(served);
    EXPECT_EQ(digest, 0xad955ce9a3c1095fULL)
        << "width " << width << ": digest 0x" << std::hex << digest;
  }
  parallel::set_max_threads(0);
}

}  // namespace
