#include "serve/vmin_predictor.hpp"

#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "models/interval.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::serve {

namespace {

/// Batch size below which predict_batch stays single-shard: dispatching a
/// handful of rows costs more than predicting them.
constexpr std::size_t kMinParallelBatchRows = 16;

/// Rows per dispatch shard — matches models::kTraversalRowBlock so each
/// shard streams the flattened tree planes exactly once per 256 rows.
constexpr std::size_t kServeShardRows = 256;

}  // namespace

VminPredictor::VminPredictor(artifact::VminBundle bundle)
    : bundle_(std::move(bundle)) {
  if (!bundle_.predictor) {
    throw std::invalid_argument("VminPredictor: bundle has no predictor");
  }
  for (const std::size_t selected : bundle_.selected_features) {
    if (selected >= bundle_.dataset_columns.size()) {
      throw std::invalid_argument(
          "VminPredictor: selected feature index out of range");
    }
  }
}

VminPredictor VminPredictor::load_file(const std::string& path) {
  return VminPredictor(artifact::load_artifact(path));
}

VminPredictor VminPredictor::from_bytes(
    const std::vector<std::uint8_t>& bytes) {
  return VminPredictor(artifact::decode_bundle(bytes));
}

// The per-shard row_block slab gives each shard's model a contiguous
// sub-batch: one cache-friendly matrix per dispatch. tests/alloc_test.cpp
// pins the allocation count of every call.
std::vector<IntervalPrediction> VminPredictor::predict_batch(
    const Matrix& x) const {
  VMINCQR_REQUIRE(x.rows() > 0, "VminPredictor::predict_batch: empty batch");
  if (x.cols() != bundle_.dataset_columns.size()) {
    throw std::invalid_argument(
        "VminPredictor::predict_batch: batch has " + std::to_string(x.cols()) +
        " columns, artifact expects " +
        std::to_string(bundle_.dataset_columns.size()));
  }

  // Identity fast path: selected == all columns in order means the caller's
  // batch IS the design matrix — skip the take_cols gather (it costs as much
  // as a model predict on a large batch).
  bool identity = bundle_.selected_features.size() == x.cols();
  if (identity) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (bundle_.selected_features[c] != c) {
        identity = false;
        break;
      }
    }
  }
  Matrix gathered;
  if (!identity) gathered = x.take_cols(bundle_.selected_features);
  const Matrix& design = identity ? x : gathered;

  // Row-sharded inference: every supported interval method computes each
  // test row independently (conformal quantiles are additive constants
  // fixed at calibration time), so per-shard predict_interval calls
  // concatenate to exactly the whole-batch answer — at any thread count.
  // The shard grain matches the tree-traversal row block (256): smaller
  // shards would re-stream the flattened node planes once per shard, and
  // the grain is a pure function of the batch shape, never thread count.
  std::vector<IntervalPrediction> out(x.rows());
  parallel::parallel_for(
      x.rows(), /*grain=*/kServeShardRows,
      [&](std::size_t begin, std::size_t end) {
        const models::IntervalPrediction band =
            bundle_.predictor->predict_interval(design.row_block(begin, end));
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = {band.lower[i - begin], band.upper[i - begin]};
        }
      },
      /*use_pool=*/x.rows() >= kMinParallelBatchRows);
  return out;
}

PredictorInfo VminPredictor::info() const {
  PredictorInfo info;
  info.label = bundle_.label;
  info.format_version = bundle_.format_version;
  info.miscoverage = bundle_.predictor->alpha().value();
  info.scenario = bundle_.scenario;
  info.n_dataset_columns = bundle_.dataset_columns.size();
  info.n_selected_features = bundle_.selected_features.size();
  return info;
}

}  // namespace vmincqr::serve
