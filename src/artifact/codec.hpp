// Versioned, self-describing binary codec for fitted-model artifacts.
//
// Wire format (all integers little-endian, doubles as IEEE-754 bit
// patterns — the round trip is bit-exact by construction):
//
//   file   := magic:u32 ("VQAF") version:u32 chunk*
//   chunk  := kind:u32 (FourCC) payload_size:u64 payload:bytes
//
// Chunks nest freely: a payload may itself be a chunk sequence, which is how
// composite predictors (quantile pairs, conformal wrappers) serialize their
// children. Writer backpatches each chunk's size on end_chunk(), so encoders
// never precompute payload lengths. Reader is bounds-checked everywhere and
// throws ArtifactError on truncation, bad magic, or an unsupported version —
// it never reads past the buffer and never trusts an embedded length.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace vmincqr::artifact {

using linalg::Matrix;
using linalg::Vector;

/// Malformed, truncated, or version-incompatible artifact bytes.
class ArtifactError : public std::runtime_error {
 public:
  explicit ArtifactError(const std::string& message)
      : std::runtime_error("artifact: " + message) {}
};

[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

inline constexpr std::uint32_t kMagic = fourcc('V', 'Q', 'A', 'F');
/// Version history:
///   1 — initial format; GBT trees as interleaved per-node records.
///   2 — GBT trees as SoA node planes (is_leaf / feature / threshold /
///       left / right / value / leaf_id / gain), mirroring the flat-forest
///       traversal layout so decode feeds the planes without a transpose.
///   3 — mandatory trailing CSUM chunk: CRC-32 (IEEE, reflected) of every
///       preceding byte, header included. Writer::finish appends it;
///       Reader::open verifies it BEFORE any chunk parsing and strips it
///       from the readable region, so decoders never see it. A CRC-32
///       detects every burst error up to 32 bits — in particular any
///       single flipped byte anywhere in the artifact — turning silent
///       payload corruption (e.g. a damaged IEEE-754 coefficient that
///       still parses) into a hard ArtifactError at load time.
/// Writers emit kFormatVersion and Reader::open accepts only kFormatVersion:
/// this repository produces every artifact it reads, so an older version is
/// refitted, not decoded. A corrupted version field therefore fails open()
/// and can never skip checksum verification.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Chunk tags. Bundle-level chunks first, then one tag per serializable
/// predictor type (the tag doubles as the type discriminator).
enum class ChunkKind : std::uint32_t {
  kMeta = fourcc('M', 'E', 'T', 'A'),          ///< scenario + label
  kColumns = fourcc('C', 'O', 'L', 'S'),       ///< dataset + selected columns
  kPredictor = fourcc('P', 'R', 'E', 'D'),     ///< wraps one predictor chunk
  kLinear = fourcc('L', 'I', 'N', 'R'),
  kGbt = fourcc('G', 'B', 'T', 'R'),
  kOrderedBoost = fourcc('O', 'B', 'S', 'T'),
  kMlp = fourcc('M', 'L', 'P', 'R'),
  kQuantilePair = fourcc('Q', 'P', 'A', 'R'),
  kCqr = fourcc('C', 'Q', 'R', 'C'),
  kChecksum = fourcc('C', 'S', 'U', 'M'),  ///< trailing CRC-32 seal
};

/// Human-readable FourCC, e.g. "META" (non-printable bytes escape to '?').
[[nodiscard]] std::string chunk_kind_name(ChunkKind kind);

/// CRC-32 (IEEE 802.3, reflected, init/final-xor 0xFFFFFFFF) — the integrity
/// seal behind the CSUM chunk. Exposed for tests and external tooling.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Streams the compact binary encoding. Scalars outside a chunk are legal
/// (nested payload encoders rely on it); finish() rejects unclosed chunks.
class Writer {
 public:
  Writer();

  void begin_chunk(ChunkKind kind);
  void end_chunk();

  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_f64(double value);
  void put_str(const std::string& value);
  void put_vec(const Vector& value);
  void put_index_vec(const std::vector<std::size_t>& value);
  void put_i32_vec(const std::vector<std::int32_t>& value);
  void put_matrix(const Matrix& value);

  /// Seals the artifact and releases the byte buffer. Contract violation
  /// (std::invalid_argument) if a chunk is still open or the writer was
  /// already finished.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::size_t> open_size_offsets_;
  bool finished_ = false;
};

/// Bounds-checked cursor over an encoded region. Obtain the top-level reader
/// via open() (validates magic + version); chunk payloads hand out nested
/// readers confined to the payload bytes.
class Reader {
 public:
  struct Chunk;  // { kind, payload } — defined below (needs complete Reader)

  /// Validates the header and the trailing CSUM seal and returns a reader
  /// over the chunk region. Throws ArtifactError on bad magic, any format
  /// version other than kFormatVersion, or a missing or mismatched seal.
  [[nodiscard]] static Reader open(const std::vector<std::uint8_t>& bytes);

  Reader(const std::uint8_t* begin, const std::uint8_t* end);

  [[nodiscard]] bool at_end() const noexcept { return cursor_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cursor_);
  }
  /// Reads one chunk header + payload, advancing past the whole chunk.
  [[nodiscard]] Chunk next_chunk();
  /// next_chunk() that must yield `kind`; throws ArtifactError otherwise.
  [[nodiscard]] Reader expect_chunk(ChunkKind kind);

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_str();
  [[nodiscard]] Vector get_vec();
  [[nodiscard]] std::vector<std::size_t> get_index_vec();
  [[nodiscard]] std::vector<std::int32_t> get_i32_vec();
  [[nodiscard]] Matrix get_matrix();

 private:
  void need(std::size_t n) const;
  [[nodiscard]] std::size_t get_length(std::size_t element_size);

  const std::uint8_t* cursor_;
  const std::uint8_t* end_;
};

/// One decoded chunk: its tag and a reader confined to its payload bytes.
struct Reader::Chunk {
  ChunkKind kind;
  Reader payload;
};

/// Debug rendering of the raw chunk tree as JSON: kinds, sizes, and nesting
/// (payloads that parse as well-formed chunk sequences recurse). Structure
/// only — decoded parameter values are rendered by artifact::debug_json in
/// bundle.hpp. Throws ArtifactError on a bad header.
[[nodiscard]] std::string chunk_tree_json(const std::vector<std::uint8_t>& bytes);

}  // namespace vmincqr::artifact
