#include "common/serialize.h"

#include <bit>
#include <cstring>

namespace grafics {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

namespace {
template <typename T>
void WriteRaw(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  Require(out.good(), "serialize: write failed");
}

template <typename T>
T ReadRaw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  Require(in.good(), "serialize: unexpected end of stream");
  return value;
}
}  // namespace

void WriteU8(std::ostream& out, std::uint8_t value) { WriteRaw(out, value); }
void WriteU32(std::ostream& out, std::uint32_t value) { WriteRaw(out, value); }
void WriteU64(std::ostream& out, std::uint64_t value) { WriteRaw(out, value); }
void WriteI32(std::ostream& out, std::int32_t value) { WriteRaw(out, value); }
void WriteDouble(std::ostream& out, double value) { WriteRaw(out, value); }

std::uint8_t ReadU8(std::istream& in) { return ReadRaw<std::uint8_t>(in); }
std::uint32_t ReadU32(std::istream& in) { return ReadRaw<std::uint32_t>(in); }
std::uint64_t ReadU64(std::istream& in) { return ReadRaw<std::uint64_t>(in); }
std::int32_t ReadI32(std::istream& in) { return ReadRaw<std::int32_t>(in); }
double ReadDouble(std::istream& in) { return ReadRaw<double>(in); }

void WriteString(std::ostream& out, const std::string& value) {
  WriteU64(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
  Require(out.good(), "serialize: write failed");
}

void RequireAvailable(std::istream& in, std::uint64_t count,
                      std::size_t element_bytes, const char* what) {
  Require(count <= BytesLeft(in) / element_bytes,
          std::string("serialize: ") + what +
              " is larger than the rest of the stream");
}

std::uint64_t BytesLeft(std::istream& in) {
  std::streambuf* buffer = in.rdbuf();
  const std::streampos here =
      buffer->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return UINT64_MAX;
  const std::streampos end = buffer->pubseekoff(0, std::ios::end, std::ios::in);
  buffer->pubseekpos(here, std::ios::in);
  if (end == std::streampos(-1)) return UINT64_MAX;
  return static_cast<std::uint64_t>(end - here);
}

std::string ReadString(std::istream& in) {
  const std::uint64_t size = ReadU64(in);
  Require(size < (1ULL << 32), "serialize: unreasonable string size");
  RequireAvailable(in, size, 1, "string");
  std::string value(size, '\0');
  in.read(value.data(), static_cast<std::streamsize>(size));
  Require(in.good(), "serialize: unexpected end of stream");
  return value;
}

void WriteOptionalI32(std::ostream& out, std::optional<std::int32_t> value) {
  WriteU8(out, value.has_value() ? 1 : 0);
  WriteI32(out, value.value_or(0));
}

std::optional<std::int32_t> ReadOptionalI32(std::istream& in) {
  const bool has_value = ReadU8(in) != 0;
  const std::int32_t value = ReadI32(in);
  if (!has_value) return std::nullopt;
  return value;
}

void WriteMatrix(std::ostream& out, const Matrix& value) {
  WriteU64(out, value.rows());
  WriteU64(out, value.cols());
  out.write(reinterpret_cast<const char*>(value.data()),
            static_cast<std::streamsize>(value.size() * sizeof(double)));
  Require(out.good(), "serialize: write failed");
}

Matrix ReadMatrix(std::istream& in) {
  const std::uint64_t rows = ReadU64(in);
  const std::uint64_t cols = ReadU64(in);
  Require(rows < (1ULL << 32) && cols < (1ULL << 32),
          "serialize: unreasonable matrix shape");
  // Both factors are below 2^32, so the element count cannot overflow.
  RequireAvailable(in, rows * cols, sizeof(double), "matrix");
  Matrix value(rows, cols);
  in.read(reinterpret_cast<char*>(value.data()),
          static_cast<std::streamsize>(value.size() * sizeof(double)));
  Require(in.good(), "serialize: unexpected end of stream");
  return value;
}

void WriteHeader(std::ostream& out, const char magic[4],
                 std::uint32_t version) {
  out.write(magic, 4);
  WriteU32(out, version);
  Require(out.good(), "serialize: write failed");
}

void CheckHeader(std::istream& in, const char magic[4],
                 std::uint32_t expected_version) {
  const std::uint32_t version = ReadHeader(in, magic);
  Require(version == expected_version,
          "serialize: unsupported format version " + std::to_string(version));
}

std::uint32_t ReadHeader(std::istream& in, const char magic[4]) {
  char actual[4] = {};
  in.read(actual, 4);
  Require(in.good() && std::memcmp(actual, magic, 4) == 0,
          "serialize: bad magic (wrong file type?)");
  return ReadU32(in);
}

}  // namespace grafics
