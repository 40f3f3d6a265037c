// Binary stream serialization helpers.
//
// A tiny, explicit little-endian format used by the model save/load path:
// fixed-width integers and IEEE doubles, length-prefixed containers, and a
// magic/version header per top-level artifact. No reflection, no surprises.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/matrix.h"

namespace grafics {

void WriteU8(std::ostream& out, std::uint8_t value);
void WriteU32(std::ostream& out, std::uint32_t value);
void WriteU64(std::ostream& out, std::uint64_t value);
void WriteI32(std::ostream& out, std::int32_t value);
void WriteDouble(std::ostream& out, double value);
void WriteString(std::ostream& out, const std::string& value);
void WriteMatrix(std::ostream& out, const Matrix& value);
/// Optional int32 as a u8 presence flag followed by a fixed i32 payload
/// (zero when absent), so the encoding is constant-width. Used by the model
/// artifact (cluster labels) and the serve wire protocol (floor labels).
void WriteOptionalI32(std::ostream& out, std::optional<std::int32_t> value);

std::uint8_t ReadU8(std::istream& in);
std::uint32_t ReadU32(std::istream& in);
std::uint64_t ReadU64(std::istream& in);
std::int32_t ReadI32(std::istream& in);
double ReadDouble(std::istream& in);
std::string ReadString(std::istream& in);
Matrix ReadMatrix(std::istream& in);
std::optional<std::int32_t> ReadOptionalI32(std::istream& in);

/// Throws grafics::Error unless `count` elements of `element_bytes` each fit
/// in the bytes left in `in` past the read position. Decoders call this on
/// a declared size before allocating for it, so a corrupt or hostile length
/// field fails cleanly instead of as std::bad_alloc. Streams that cannot
/// seek (pipes) report no size and pass.
void RequireAvailable(std::istream& in, std::uint64_t count,
                      std::size_t element_bytes, const char* what);
/// The bytes left in `in` past the read position (UINT64_MAX when the
/// stream cannot seek). Probing seeks the stream, and a seek drops a file
/// stream's read buffer: a decoder bounding many short lists probes once
/// for the whole section rather than once per list.
std::uint64_t BytesLeft(std::istream& in);

/// Writes/checks a 4-byte magic plus u32 version.
void WriteHeader(std::ostream& out, const char magic[4],
                 std::uint32_t version);
/// Throws grafics::Error on magic or version mismatch.
void CheckHeader(std::istream& in, const char magic[4],
                 std::uint32_t expected_version);
/// Reads a magic + version header, throwing only on magic mismatch and
/// returning the version — for formats that decode a range of versions
/// (e.g. the bipartite graph) instead of exactly one.
std::uint32_t ReadHeader(std::istream& in, const char magic[4]);

}  // namespace grafics
