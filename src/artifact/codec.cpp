#include "artifact/codec.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <sstream>
#include <utility>

#include "core/contracts.hpp"

namespace vmincqr::artifact {

namespace {

constexpr std::size_t kU32Size = 4;
constexpr std::size_t kU64Size = 8;

bool printable_fourcc(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    const auto byte = static_cast<unsigned char>((value >> shift) & 0xFFU);
    if (byte < 0x20 || byte > 0x7E) return false;
  }
  return true;
}

/// Byte size of the encoded trailing CSUM chunk: kind + size + crc payload.
constexpr std::size_t kChecksumChunkBytes = kU32Size + kU64Size + kU32Size;

const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& table = crc32_table();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string chunk_kind_name(ChunkKind kind) {
  const auto value = static_cast<std::uint32_t>(kind);
  std::string out(4, '?');
  for (int i = 0; i < 4; ++i) {
    const auto byte = static_cast<unsigned char>((value >> (8 * i)) & 0xFFU);
    if (byte >= 0x20 && byte <= 0x7E) out[static_cast<std::size_t>(i)] = static_cast<char>(byte);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer

Writer::Writer() {
  put_u32(kMagic);
  put_u32(kFormatVersion);
}

void Writer::begin_chunk(ChunkKind kind) {
  VMINCQR_REQUIRE(!finished_, "Writer::begin_chunk: writer already finished");
  put_u32(static_cast<std::uint32_t>(kind));
  open_size_offsets_.push_back(bytes_.size());
  put_u64(0);  // payload size, backpatched by end_chunk()
}

void Writer::end_chunk() {
  VMINCQR_REQUIRE(!open_size_offsets_.empty(),
                  "Writer::end_chunk: no open chunk");
  const std::size_t size_offset = open_size_offsets_.back();
  open_size_offsets_.pop_back();
  const std::uint64_t payload_size = bytes_.size() - size_offset - kU64Size;
  for (std::size_t i = 0; i < kU64Size; ++i) {
    bytes_[size_offset + i] =
        static_cast<std::uint8_t>((payload_size >> (8 * i)) & 0xFFU);
  }
}

void Writer::put_u8(std::uint8_t value) {
  VMINCQR_REQUIRE(!finished_, "Writer: already finished");
  bytes_.push_back(value);
}

void Writer::put_u32(std::uint32_t value) {
  VMINCQR_REQUIRE(!finished_, "Writer: already finished");
  for (std::size_t i = 0; i < kU32Size; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xFFU));
  }
}

void Writer::put_u64(std::uint64_t value) {
  VMINCQR_REQUIRE(!finished_, "Writer: already finished");
  for (std::size_t i = 0; i < kU64Size; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xFFU));
  }
}

void Writer::put_f64(double value) {
  put_u64(std::bit_cast<std::uint64_t>(value));
}

void Writer::put_str(const std::string& value) {
  put_u64(value.size());
  for (const char c : value) {
    bytes_.push_back(static_cast<std::uint8_t>(c));
  }
}

void Writer::put_vec(const Vector& value) {
  put_u64(value.size());
  for (const double v : value) put_f64(v);
}

void Writer::put_index_vec(const std::vector<std::size_t>& value) {
  put_u64(value.size());
  for (const std::size_t v : value) put_u64(v);
}

void Writer::put_i32_vec(const std::vector<std::int32_t>& value) {
  put_u64(value.size());
  for (const std::int32_t v : value) put_u32(static_cast<std::uint32_t>(v));
}

void Writer::put_matrix(const Matrix& value) {
  put_u64(value.rows());
  put_u64(value.cols());
  for (const double v : value.data()) put_f64(v);
}

std::vector<std::uint8_t> Writer::finish() {
  VMINCQR_REQUIRE(open_size_offsets_.empty(),
                  "Writer::finish: unclosed chunk");
  VMINCQR_REQUIRE(!finished_, "Writer::finish: already finished");
  // v3 seal: CRC-32 over everything written so far (header included),
  // carried in a final CSUM chunk. Computed before the chunk is appended,
  // so the seal covers exactly the bytes Reader::open re-hashes.
  const std::uint32_t crc = crc32(bytes_.data(), bytes_.size());
  begin_chunk(ChunkKind::kChecksum);
  put_u32(crc);
  end_chunk();
  finished_ = true;
  return std::move(bytes_);
}

// ---------------------------------------------------------------------------
// Reader

Reader Reader::open(const std::vector<std::uint8_t>& bytes) {
  Reader header(bytes.data(), bytes.data() + bytes.size());
  if (header.remaining() < 2 * kU32Size) {
    throw ArtifactError("header truncated (" +
                        std::to_string(bytes.size()) + " bytes)");
  }
  const std::uint32_t magic = header.get_u32();
  if (magic != kMagic) {
    throw ArtifactError("bad magic: not a VQAF artifact");
  }
  const std::uint32_t version = header.get_u32();
  if (version != kFormatVersion) {
    throw ArtifactError("unsupported format version " +
                        std::to_string(version) + " (reader supports only " +
                        std::to_string(kFormatVersion) + ")");
  }
  // The artifact must end with a CSUM chunk sealing every preceding byte.
  // Verify BEFORE any chunk parsing — a corrupted chunk header must not get
  // the chance to misdirect the parse — then strip the seal from the
  // readable region so decoders never see it.
  if (header.remaining() < kChecksumChunkBytes) {
    throw ArtifactError("artifact missing trailing CSUM chunk");
  }
  const std::uint8_t* const seal_begin =
      header.end_ - static_cast<std::ptrdiff_t>(kChecksumChunkBytes);
  Reader seal(seal_begin, header.end_);
  if (static_cast<ChunkKind>(seal.get_u32()) != ChunkKind::kChecksum ||
      seal.get_u64() != kU32Size) {
    throw ArtifactError("artifact missing trailing CSUM chunk");
  }
  const std::uint32_t stored = seal.get_u32();
  const std::uint32_t actual = crc32(
      bytes.data(), static_cast<std::size_t>(seal_begin - bytes.data()));
  if (stored != actual) {
    throw ArtifactError("checksum mismatch: artifact bytes are corrupted");
  }
  header.end_ = seal_begin;
  return header;
}

Reader::Reader(const std::uint8_t* begin, const std::uint8_t* end)
    : cursor_(begin), end_(end) {
  VMINCQR_REQUIRE(begin <= end, "Reader: inverted byte range");
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw ArtifactError("truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()));
  }
}

Reader::Chunk Reader::next_chunk() {
  const std::uint32_t kind = get_u32();
  const std::uint64_t size = get_u64();
  need(static_cast<std::size_t>(size));
  Reader payload(cursor_, cursor_ + size);
  cursor_ += size;
  return {static_cast<ChunkKind>(kind), payload};
}

Reader Reader::expect_chunk(ChunkKind kind) {
  Chunk chunk = next_chunk();
  if (chunk.kind != kind) {
    throw ArtifactError("expected chunk '" + chunk_kind_name(kind) +
                        "', found '" + chunk_kind_name(chunk.kind) + "'");
  }
  return chunk.payload;
}

std::uint8_t Reader::get_u8() {
  need(1);
  return *cursor_++;
}

std::uint32_t Reader::get_u32() {
  need(kU32Size);
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < kU32Size; ++i) {
    value |= static_cast<std::uint32_t>(cursor_[i]) << (8 * i);
  }
  cursor_ += kU32Size;
  return value;
}

std::uint64_t Reader::get_u64() {
  need(kU64Size);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kU64Size; ++i) {
    value |= static_cast<std::uint64_t>(cursor_[i]) << (8 * i);
  }
  cursor_ += kU64Size;
  return value;
}

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::size_t Reader::get_length(std::size_t element_size) {
  const std::uint64_t length = get_u64();
  // An embedded length can never exceed what the payload can physically hold,
  // so a corrupted length fails here instead of triggering a huge allocation.
  if (element_size > 0 && length > remaining() / element_size) {
    throw ArtifactError("corrupt length " + std::to_string(length) +
                        " exceeds remaining payload");
  }
  return static_cast<std::size_t>(length);
}

std::string Reader::get_str() {
  const std::size_t length = get_length(1);
  std::string out(reinterpret_cast<const char*>(cursor_), length);
  cursor_ += length;
  return out;
}

Vector Reader::get_vec() {
  const std::size_t length = get_length(kU64Size);
  Vector out(length);
  for (std::size_t i = 0; i < length; ++i) out[i] = get_f64();
  return out;
}

std::vector<std::size_t> Reader::get_index_vec() {
  const std::size_t length = get_length(kU64Size);
  std::vector<std::size_t> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = get_u64();
  }
  return out;
}

std::vector<std::int32_t> Reader::get_i32_vec() {
  const std::size_t length = get_length(kU32Size);
  std::vector<std::int32_t> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = static_cast<std::int32_t>(get_u32());
  }
  return out;
}

Matrix Reader::get_matrix() {
  const std::uint64_t rows = get_u64();
  const std::uint64_t cols = get_u64();
  if (cols > 0 && rows > remaining() / kU64Size / cols) {
    throw ArtifactError("corrupt matrix shape " + std::to_string(rows) + "x" +
                        std::to_string(cols) + " exceeds remaining payload");
  }
  Vector data(rows * cols);
  for (double& v : data) v = get_f64();
  return Matrix::from_rows(rows, cols, std::move(data));
}

// ---------------------------------------------------------------------------
// Debug rendering

namespace {

// A payload "looks like" a chunk sequence when it parses end-to-end as
// printable-FourCC chunks whose sizes tile the region exactly. False
// positives are possible in principle but harmless: this is a debug view.
bool parses_as_chunks(Reader region) {
  if (region.at_end()) return false;
  try {
    while (!region.at_end()) {
      if (region.remaining() < kU32Size + kU64Size) return false;
      Reader probe = region;  // peek the kind without consuming
      if (!printable_fourcc(probe.get_u32())) return false;
      (void)region.next_chunk();  // bounds-checked skip over the payload
    }
  } catch (const ArtifactError&) {
    return false;
  }
  return true;
}

void render_chunks(Reader region, std::ostringstream& out, int indent);

void render_chunk(const Reader::Chunk& chunk, std::ostringstream& out,
                  int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out << pad << "{\"kind\": \"" << chunk_kind_name(chunk.kind)
      << "\", \"size\": " << chunk.payload.remaining();
  if (parses_as_chunks(chunk.payload)) {
    out << ", \"children\": [\n";
    render_chunks(chunk.payload, out, indent + 1);
    out << pad << "]}";
  } else {
    out << "}";
  }
}

void render_chunks(Reader region, std::ostringstream& out, int indent) {
  bool first = true;
  while (!region.at_end()) {
    if (!first) out << ",\n";
    first = false;
    render_chunk(region.next_chunk(), out, indent);
  }
  out << "\n";
}

}  // namespace

std::string chunk_tree_json(const std::vector<std::uint8_t>& bytes) {
  Reader reader = Reader::open(bytes);
  std::ostringstream out;
  out << "{\"format\": \"VQAF\", \"version\": " << kFormatVersion
      << ", \"chunks\": [\n";
  render_chunks(reader, out, 1);
  out << "]}";
  return out.str();
}

}  // namespace vmincqr::artifact
