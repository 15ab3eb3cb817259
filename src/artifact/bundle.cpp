#include "artifact/bundle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "artifact/model_codec.hpp"
#include "core/contracts.hpp"

namespace vmincqr::artifact {

std::vector<std::uint8_t> encode_bundle(const VminBundle& bundle) {
  if (!bundle.predictor) {
    throw std::invalid_argument("encode_bundle: null predictor");
  }
  Writer writer;

  writer.begin_chunk(ChunkKind::kMeta);
  writer.put_f64(bundle.scenario.read_point_hours);
  writer.put_f64(bundle.scenario.temperature_c);
  writer.put_u8(bundle.scenario.feature_set);
  writer.put_f64(bundle.scenario.monitor_horizon_hours);
  writer.put_str(bundle.label);
  writer.end_chunk();

  writer.begin_chunk(ChunkKind::kColumns);
  writer.put_index_vec(bundle.dataset_columns);
  writer.put_index_vec(bundle.selected_features);
  writer.end_chunk();

  writer.begin_chunk(ChunkKind::kPredictor);
  encode_interval_regressor(writer, *bundle.predictor);
  writer.end_chunk();

  return writer.finish();
}

VminBundle decode_bundle(const std::vector<std::uint8_t>& bytes) {
  Reader reader = Reader::open(bytes);
  VminBundle bundle;

  bool saw_meta = false;
  bool saw_columns = false;
  while (!reader.at_end()) {
    Reader::Chunk chunk = reader.next_chunk();
    Reader& body = chunk.payload;
    switch (chunk.kind) {
      case ChunkKind::kMeta:
        bundle.scenario.read_point_hours = body.get_f64();
        bundle.scenario.temperature_c = body.get_f64();
        bundle.scenario.feature_set = body.get_u8();
        bundle.scenario.monitor_horizon_hours = body.get_f64();
        bundle.label = body.get_str();
        saw_meta = true;
        break;
      case ChunkKind::kColumns:
        bundle.dataset_columns = body.get_index_vec();
        bundle.selected_features = body.get_index_vec();
        saw_columns = true;
        break;
      case ChunkKind::kPredictor:
        if (bundle.predictor) {
          throw ArtifactError("duplicate PRED chunk");
        }
        bundle.predictor = decode_interval_regressor(body);
        break;
      default:
        // Strict for v1: every chunk kind is load-bearing, so an unknown tag
        // means corruption (a future version bump relaxes this to skip).
        throw ArtifactError("unknown bundle chunk '" +
                            chunk_kind_name(chunk.kind) + "'");
    }
  }

  if (!saw_meta) throw ArtifactError("bundle missing META chunk");
  if (!saw_columns) throw ArtifactError("bundle missing COLS chunk");
  if (!bundle.predictor) throw ArtifactError("bundle missing PRED chunk");
  for (const std::size_t selected : bundle.selected_features) {
    if (selected >= bundle.dataset_columns.size()) {
      throw ArtifactError("selected feature index " +
                          std::to_string(selected) +
                          " out of range for " +
                          std::to_string(bundle.dataset_columns.size()) +
                          " dataset columns");
    }
  }
  return bundle;
}

void save_artifact(const VminBundle& bundle, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_bundle(bundle);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw ArtifactError("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw ArtifactError("write failed for '" + path + "'");
  }
}

VminBundle load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw ArtifactError("cannot open '" + path + "' for reading");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw ArtifactError("read failed for '" + path + "'");
  }
  return decode_bundle(bytes);
}

namespace {

void render_index_list(std::ostringstream& out,
                       const std::vector<std::size_t>& values) {
  constexpr std::size_t kMaxListed = 16;
  out << "[";
  for (std::size_t i = 0; i < values.size() && i < kMaxListed; ++i) {
    if (i > 0) out << ", ";
    out << values[i];
  }
  if (values.size() > kMaxListed) {
    out << ", \"... " << values.size() - kMaxListed << " more\"";
  }
  out << "]";
}

std::string escaped(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string debug_json(const VminBundle& bundle) {
  VMINCQR_REQUIRE(bundle.predictor != nullptr,
                  "debug_json: null predictor in bundle");
  std::ostringstream out;
  out << "{\n";
  out << "  \"format_version\": " << bundle.format_version << ",\n";
  out << "  \"label\": \"" << escaped(bundle.label) << "\",\n";
  out << "  \"scenario\": {\"read_point_hours\": "
      << bundle.scenario.read_point_hours
      << ", \"temperature_c\": " << bundle.scenario.temperature_c
      << ", \"feature_set\": " << static_cast<int>(bundle.scenario.feature_set)
      << ", \"monitor_horizon_hours\": "
      << bundle.scenario.monitor_horizon_hours << "},\n";
  out << "  \"n_dataset_columns\": " << bundle.dataset_columns.size() << ",\n";
  out << "  \"dataset_columns\": ";
  render_index_list(out, bundle.dataset_columns);
  out << ",\n";
  out << "  \"selected_features\": ";
  render_index_list(out, bundle.selected_features);
  out << ",\n";
  out << "  \"predictor\": {\"name\": \"" << escaped(bundle.predictor->name())
      << "\", \"alpha\": " << bundle.predictor->alpha().value() << "}\n";
  out << "}";
  return out.str();
}

}  // namespace vmincqr::artifact
