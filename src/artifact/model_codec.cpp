#include "artifact/model_codec.hpp"

#include <stdexcept>
#include <utility>

#include "conformal/cqr.hpp"
#include "models/gbt.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "models/ordered_boost.hpp"
#include "models/region.hpp"
#include "models/tree.hpp"

namespace vmincqr::artifact {

namespace {

using core::MiscoverageAlpha;

// --- shared sub-payloads ---------------------------------------------------

void put_scaler(Writer& writer, const data::ScalerParams& params) {
  writer.put_vec(params.means);
  writer.put_vec(params.scales);
}

data::ScalerParams get_scaler(Reader& reader) {
  data::ScalerParams params;
  params.means = reader.get_vec();
  params.scales = reader.get_vec();
  return params;
}

void put_label_scaler(Writer& writer, const data::LabelScalerParams& params) {
  writer.put_f64(params.mean);
  writer.put_f64(params.scale);
}

data::LabelScalerParams get_label_scaler(Reader& reader) {
  data::LabelScalerParams params;
  params.mean = reader.get_f64();
  params.scale = reader.get_f64();
  return params;
}

/// Reads a miscoverage level, converting the unit type's domain check into a
/// decode error (an out-of-range alpha means corrupt bytes, not caller
/// misuse).
MiscoverageAlpha get_alpha(Reader& reader) {
  const double value = reader.get_f64();
  try {
    return MiscoverageAlpha{value};
  } catch (const std::invalid_argument& e) {
    throw ArtifactError(std::string("bad miscoverage level: ") + e.what());
  }
}

// --- point-model payloads --------------------------------------------------

void put_linear_body(Writer& writer, const models::LinearParams& params) {
  put_scaler(writer, params.scaler);
  put_label_scaler(writer, params.label);
  writer.put_vec(params.coef);
}

void put_mlp_body(Writer& writer, const models::MlpParams& params) {
  put_scaler(writer, params.scaler);
  put_label_scaler(writer, params.label);
  writer.put_matrix(params.w1);
  writer.put_vec(params.b1);
  writer.put_vec(params.w2);
  writer.put_f64(params.b2);
}

// SoA node planes over the whole forest, in tree order — the same layout the
// flat-forest traversal kernel consumes, so decode fills planes instead of
// transposing per-node records.
void put_gbt_body(Writer& writer, const models::GbtParams& params) {
  writer.put_f64(params.base_score);
  writer.put_f64(params.learning_rate);
  writer.put_u64(params.n_features);
  std::size_t total = 0;
  std::vector<std::size_t> counts;
  counts.reserve(params.trees.size());
  for (const auto& nodes : params.trees) {
    counts.push_back(nodes.size());
    total += nodes.size();
  }
  writer.put_index_vec(counts);
  writer.put_u64(total);
  for (const auto& nodes : params.trees) {
    for (const models::TreeNode& node : nodes) {
      writer.put_u8(node.is_leaf ? 1 : 0);
    }
  }
  std::vector<std::size_t> features(total);
  Vector f64_plane(total);
  std::vector<std::int32_t> i32_plane(total);
  const auto for_each_node = [&params](auto&& fn) {
    std::size_t i = 0;
    for (const auto& nodes : params.trees) {
      for (const models::TreeNode& node : nodes) fn(i++, node);
    }
  };
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    features[i] = n.feature;
  });
  writer.put_index_vec(features);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    f64_plane[i] = n.threshold;
  });
  writer.put_vec(f64_plane);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    i32_plane[i] = n.left;
  });
  writer.put_i32_vec(i32_plane);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    i32_plane[i] = n.right;
  });
  writer.put_i32_vec(i32_plane);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    f64_plane[i] = n.value;
  });
  writer.put_vec(f64_plane);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    i32_plane[i] = n.leaf_id;
  });
  writer.put_i32_vec(i32_plane);
  for_each_node([&](std::size_t i, const models::TreeNode& n) {
    f64_plane[i] = n.gain;
  });
  writer.put_vec(f64_plane);
}

models::GbtParams get_gbt_body(Reader& reader) {
  models::GbtParams params;
  params.base_score = reader.get_f64();
  params.learning_rate = reader.get_f64();
  params.n_features = reader.get_u64();
  const std::vector<std::size_t> counts = reader.get_index_vec();
  const std::uint64_t total = reader.get_u64();
  std::uint64_t counted = 0;
  for (const std::size_t c : counts) counted += c;
  if (counted != total) {
    throw ArtifactError("GBT node plane length disagrees with tree counts");
  }
  std::vector<std::uint8_t> is_leaf(static_cast<std::size_t>(total));
  for (auto& flag : is_leaf) flag = reader.get_u8();
  const std::vector<std::size_t> features = reader.get_index_vec();
  const Vector thresholds = reader.get_vec();
  const std::vector<std::int32_t> lefts = reader.get_i32_vec();
  const std::vector<std::int32_t> rights = reader.get_i32_vec();
  const Vector values = reader.get_vec();
  const std::vector<std::int32_t> leaf_ids = reader.get_i32_vec();
  const Vector gains = reader.get_vec();
  if (features.size() != total || thresholds.size() != total ||
      lefts.size() != total || rights.size() != total ||
      values.size() != total || leaf_ids.size() != total ||
      gains.size() != total) {
    throw ArtifactError("GBT node planes have inconsistent lengths");
  }
  params.trees.reserve(counts.size());
  std::size_t base = 0;
  for (const std::size_t n_nodes : counts) {
    std::vector<models::TreeNode> nodes;
    nodes.reserve(n_nodes);
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const std::size_t i = base + n;
      models::TreeNode node;
      node.is_leaf = is_leaf[i] != 0;
      node.feature = features[i];
      node.threshold = thresholds[i];
      node.left = lefts[i];
      node.right = rights[i];
      node.value = values[i];
      node.leaf_id = leaf_ids[i];
      node.gain = gains[i];
      nodes.push_back(node);
    }
    base += n_nodes;
    params.trees.push_back(std::move(nodes));
  }
  return params;
}

void put_ordered_boost_body(Writer& writer,
                            const models::OrderedBoostParams& params) {
  writer.put_f64(params.base_score);
  writer.put_f64(params.learning_rate);
  writer.put_u64(params.n_features);
  writer.put_vec(params.feature_gains);
  writer.put_u64(params.trees.size());
  for (const models::ObliviousTree& tree : params.trees) {
    writer.put_index_vec(tree.features);
    writer.put_vec(tree.thresholds);
    writer.put_vec(tree.leaf_values);
  }
}

models::OrderedBoostParams get_ordered_boost_body(Reader& reader) {
  models::OrderedBoostParams params;
  params.base_score = reader.get_f64();
  params.learning_rate = reader.get_f64();
  params.n_features = reader.get_u64();
  params.feature_gains = reader.get_vec();
  const std::uint64_t n_trees = reader.get_u64();
  params.trees.reserve(static_cast<std::size_t>(n_trees));
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    models::ObliviousTree tree;
    tree.features = reader.get_index_vec();
    tree.thresholds = reader.get_vec();
    tree.leaf_values = reader.get_vec();
    params.trees.push_back(std::move(tree));
  }
  return params;
}

/// Converts a model's import-time validation failure into a decode error:
/// params that fail shape checks can only come from corrupt bytes here.
template <typename ImportFn>
void import_or_reject(ImportFn&& import_fn, const char* what) {
  try {
    std::forward<ImportFn>(import_fn)();
  } catch (const std::invalid_argument& e) {
    throw ArtifactError(std::string(what) + ": " + e.what());
  }
}

}  // namespace

void encode_regressor(Writer& writer, const models::Regressor& model) {
  if (const auto* linear = dynamic_cast<const models::LinearRegressor*>(&model)) {
    writer.begin_chunk(ChunkKind::kLinear);
    put_linear_body(writer, linear->export_params());
    writer.end_chunk();
  } else if (const auto* gbt =
                 dynamic_cast<const models::GradientBoostedTrees*>(&model)) {
    writer.begin_chunk(ChunkKind::kGbt);
    put_gbt_body(writer, gbt->export_params());
    writer.end_chunk();
  } else if (const auto* ordered =
                 dynamic_cast<const models::OrderedBoostedTrees*>(&model)) {
    writer.begin_chunk(ChunkKind::kOrderedBoost);
    put_ordered_boost_body(writer, ordered->export_params());
    writer.end_chunk();
  } else if (const auto* mlp = dynamic_cast<const models::MlpRegressor*>(&model)) {
    writer.begin_chunk(ChunkKind::kMlp);
    put_mlp_body(writer, mlp->export_params());
    writer.end_chunk();
  } else {
    throw ArtifactError("unsupported point-regressor type: " + model.name());
  }
}

std::unique_ptr<models::Regressor> decode_regressor(Reader& reader) {
  Reader::Chunk chunk = reader.next_chunk();
  Reader& body = chunk.payload;
  switch (chunk.kind) {
    case ChunkKind::kLinear: {
      models::LinearParams params;
      params.scaler = get_scaler(body);
      params.label = get_label_scaler(body);
      params.coef = body.get_vec();
      auto model = std::make_unique<models::LinearRegressor>();
      import_or_reject([&] { model->import_params(std::move(params)); },
                       "linear payload rejected");
      return model;
    }
    case ChunkKind::kGbt: {
      models::GbtParams params = get_gbt_body(body);
      auto model = std::make_unique<models::GradientBoostedTrees>();
      import_or_reject([&] { model->import_params(params); },
                       "gbt payload rejected");
      return model;
    }
    case ChunkKind::kOrderedBoost: {
      models::OrderedBoostParams params = get_ordered_boost_body(body);
      auto model = std::make_unique<models::OrderedBoostedTrees>();
      import_or_reject([&] { model->import_params(std::move(params)); },
                       "ordered-boost payload rejected");
      return model;
    }
    case ChunkKind::kMlp: {
      models::MlpParams params;
      params.scaler = get_scaler(body);
      params.label = get_label_scaler(body);
      params.w1 = body.get_matrix();
      params.b1 = body.get_vec();
      params.w2 = body.get_vec();
      params.b2 = body.get_f64();
      auto model = std::make_unique<models::MlpRegressor>();
      import_or_reject([&] { model->import_params(std::move(params)); },
                       "mlp payload rejected");
      return model;
    }
    default:
      throw ArtifactError("unknown point-regressor chunk '" +
                          chunk_kind_name(chunk.kind) + "'");
  }
}

void encode_interval_regressor(Writer& writer,
                               const models::IntervalRegressor& model) {
  const auto* cqr =
      dynamic_cast<const conformal::ConformalizedQuantileRegressor*>(&model);
  const auto* pair =
      cqr == nullptr
          ? nullptr
          : dynamic_cast<const models::QuantilePairRegressor*>(&cqr->base());
  if (pair == nullptr) {
    throw ArtifactError("unsupported interval-regressor type: " +
                        model.name() +
                        " (a bundle holds CQR over a quantile pair)");
  }
  const conformal::CqrCalibration calibration = cqr->export_calibration();
  writer.begin_chunk(ChunkKind::kCqr);
  writer.put_f64(cqr->alpha().value());
  writer.put_u8(static_cast<std::uint8_t>(cqr->mode()));
  writer.put_f64(calibration.q_hat_lo);
  writer.put_f64(calibration.q_hat_hi);
  writer.begin_chunk(ChunkKind::kQuantilePair);
  writer.put_f64(pair->alpha().value());
  writer.put_str(pair->name());
  encode_regressor(writer, pair->lower_model());
  encode_regressor(writer, pair->upper_model());
  writer.end_chunk();
  writer.end_chunk();
}

std::unique_ptr<models::IntervalRegressor> decode_interval_regressor(
    Reader& reader) {
  Reader body = reader.expect_chunk(ChunkKind::kCqr);
  const MiscoverageAlpha level = get_alpha(body);
  const std::uint8_t mode = body.get_u8();
  if (mode > static_cast<std::uint8_t>(conformal::CqrMode::kAsymmetric)) {
    throw ArtifactError("bad CQR mode byte " + std::to_string(mode));
  }
  conformal::CqrCalibration calibration;
  calibration.q_hat_lo = body.get_f64();
  calibration.q_hat_hi = body.get_f64();

  Reader pair_body = body.expect_chunk(ChunkKind::kQuantilePair);
  if (!body.at_end() || !reader.at_end()) {
    throw ArtifactError(
        "a predictor is exactly one CQRC chunk nesting exactly one QPAR");
  }
  const MiscoverageAlpha pair_level = get_alpha(pair_body);
  std::string label = pair_body.get_str();
  auto lower = decode_regressor(pair_body);
  auto upper = decode_regressor(pair_body);
  auto pair = std::make_unique<models::QuantilePairRegressor>(
      pair_level, std::move(lower), std::move(upper), std::move(label));

  conformal::CqrConfig config;
  config.mode = static_cast<conformal::CqrMode>(mode);
  std::unique_ptr<conformal::ConformalizedQuantileRegressor> model;
  // The constructor cross-checks the wrapper's level against the pair's, so
  // it belongs inside the corrupt-bytes rejection wrapper.
  import_or_reject(
      [&] {
        model = std::make_unique<conformal::ConformalizedQuantileRegressor>(
            level, std::move(pair), config);
        model->import_calibration(calibration);
      },
      "cqr payload rejected");
  return model;
}

}  // namespace vmincqr::artifact
