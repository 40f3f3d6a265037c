// Chunk-level delta (de)serialization for the copy-on-write containers.
//
// A delta checkpoint (store::ModelStore) carries only the chunks a snapshot
// owns relative to a retained base snapshot — chunk identity, not content,
// decides what is written, so a K-record fold serializes O(owned chunks)
// instead of O(model). Applying a delta onto a freshly loaded base replaces
// exactly those chunks and leaves every other chunk as the base's storage,
// which is the on-disk mirror of Grafics::Clone's structural sharing.
//
// Wire layout (inside a versioned outer artifact, so no header here):
//   u64 new_size, u32 delta_chunk_count,
//   then per chunk: u32 chunk_index, u32 element_count, elements...
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/cow.h"
#include "common/error.h"
#include "common/serialize.h"

namespace grafics {

/// Guards a delta's declared size before the chunk table grows to it: every
/// chunk slot the delta adds must be filled by a chunk record of at least 8
/// bytes (u32 index + u32 count), so a size the rest of the stream cannot
/// populate is rejected instead of allocating a hostile-sized table.
inline void RequireDeltaSlotsAvailable(std::istream& in,
                                       std::uint64_t new_size,
                                       std::size_t per_chunk,
                                       std::size_t current_chunks,
                                       const char* what) {
  const std::uint64_t chunks =
      new_size / per_chunk + (new_size % per_chunk != 0 ? 1 : 0);
  RequireAvailable(in, chunks - std::min<std::uint64_t>(chunks, current_chunks),
                   8, what);
}

template <typename T, std::size_t kChunkSize, typename WriteElem>
void WriteCowVectorDelta(std::ostream& out,
                         const CowVector<T, kChunkSize>& current,
                         const CowVector<T, kChunkSize>& base,
                         WriteElem&& write_elem) {
  WriteU64(out, current.size());
  const std::vector<std::size_t> diff = current.DiffChunksAgainst(base);
  WriteU32(out, static_cast<std::uint32_t>(diff.size()));
  for (const std::size_t c : diff) {
    const std::span<const T> chunk = current.ChunkSpan(c);
    WriteU32(out, static_cast<std::uint32_t>(c));
    WriteU32(out, static_cast<std::uint32_t>(chunk.size()));
    for (const T& item : chunk) write_elem(out, item);
  }
}

/// Applies a delta written by WriteCowVectorDelta onto `target` (the loaded
/// base). Validates that every chunk slot is populated afterwards, so a
/// truncated or mismatched delta is an Error, never a null dereference.
template <typename T, std::size_t kChunkSize, typename ReadElem>
void ApplyCowVectorDelta(std::istream& in, CowVector<T, kChunkSize>& target,
                         ReadElem&& read_elem) {
  const std::uint64_t new_size = ReadU64(in);
  Require(new_size >= target.size(),
          "ApplyCowVectorDelta: delta shrinks the container");
  RequireDeltaSlotsAvailable(in, new_size, kChunkSize, target.num_chunks(),
                             "delta chunk table");
  target.ResizeForDelta(new_size);
  const std::uint32_t delta_chunks = ReadU32(in);
  Require(delta_chunks <= target.num_chunks(),
          "ApplyCowVectorDelta: more delta chunks than chunks");
  for (std::uint32_t i = 0; i < delta_chunks; ++i) {
    const std::uint32_t c = ReadU32(in);
    Require(c < target.num_chunks(),
            "ApplyCowVectorDelta: chunk index out of range");
    const std::uint32_t count = ReadU32(in);
    Require(count <= kChunkSize, "ApplyCowVectorDelta: oversized chunk");
    std::vector<T> values;
    values.reserve(count);
    for (std::uint32_t e = 0; e < count; ++e) values.push_back(read_elem(in));
    target.ApplyChunk(c, std::move(values));
  }
  for (std::size_t c = 0; c < target.num_chunks(); ++c) {
    Require(target.ChunkIdentity(c) != nullptr,
            "ApplyCowVectorDelta: delta leaves chunk " + std::to_string(c) +
                " unpopulated");
  }
}

// Element-level sparse delta for CowVectors of heavyweight elements (e.g.
// adjacency lists). Chunk identity still gates the scan — shared chunks are
// skipped wholesale — but within an owned chunk only the elements that
// actually differ from the base travel, so one hot element does not drag
// its kChunkSize-1 untouched neighbors into the artifact.
//
// Wire layout: u64 new_size, u64 changed_count, then per element:
//   u32 index, element delta (writer-defined, may reference the base).
//
// `write_elem(out, current_elem, base_elem_or_null)` encodes one element;
// the base pointer is null for appended elements (index >= base size).
template <typename T, std::size_t kChunkSize, typename WriteElem>
void WriteCowVectorSparseDelta(std::ostream& out,
                               const CowVector<T, kChunkSize>& current,
                               const CowVector<T, kChunkSize>& base,
                               WriteElem&& write_elem) {
  WriteU64(out, current.size());
  std::vector<std::size_t> changed;
  for (const std::size_t c : current.DiffChunksAgainst(base)) {
    const std::size_t begin = c * kChunkSize;
    const std::span<const T> chunk = current.ChunkSpan(c);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::size_t index = begin + i;
      if (index >= base.size() || !(chunk[i] == base[index])) {
        changed.push_back(index);
      }
    }
  }
  WriteU64(out, changed.size());
  for (const std::size_t index : changed) {
    WriteU32(out, static_cast<std::uint32_t>(index));
    write_elem(out, current[index],
               index < base.size() ? &base[index] : nullptr);
  }
}

/// Applies a sparse delta onto `target` (the loaded base). `read_elem(in,
/// index, elem)` decodes element `index` in place — `elem` holds the base
/// value for existing indices and is default-constructed for appended ones,
/// so a prefix-sharing encoding can extend it instead of rewriting it.
template <typename T, std::size_t kChunkSize, typename ReadElem>
void ApplyCowVectorSparseDelta(std::istream& in,
                               CowVector<T, kChunkSize>& target,
                               ReadElem&& read_elem) {
  const std::uint64_t new_size = ReadU64(in);
  Require(new_size >= target.size(),
          "ApplyCowVectorSparseDelta: delta shrinks the container");
  const std::uint64_t changed = ReadU64(in);
  Require(changed <= new_size,
          "ApplyCowVectorSparseDelta: more changed elements than elements");
  for (std::uint64_t i = 0; i < changed; ++i) {
    const std::uint32_t index = ReadU32(in);
    Require(index < new_size,
            "ApplyCowVectorSparseDelta: element index out of range");
    if (index < target.size()) {
      read_elem(in, index, target.MutableAt(index));
    } else {
      // Appended elements arrive in ascending order, each extending the
      // container by exactly one slot.
      Require(index == target.size(),
              "ApplyCowVectorSparseDelta: gap in appended elements");
      T element{};
      read_elem(in, index, element);
      target.PushBack(std::move(element));
    }
  }
  Require(target.size() == new_size,
          "ApplyCowVectorSparseDelta: delta missing appended elements");
}

inline void WriteCowMatrixDelta(std::ostream& out, const CowMatrix& current,
                                const CowMatrix& base) {
  Require(current.cols() == base.cols() || base.rows() == 0,
          "WriteCowMatrixDelta: column count changed");
  WriteU64(out, current.rows());
  const std::vector<std::size_t> diff = current.DiffChunksAgainst(base);
  WriteU32(out, static_cast<std::uint32_t>(diff.size()));
  for (const std::size_t c : diff) {
    const std::span<const double> chunk = current.ChunkSpan(c);
    WriteU32(out, static_cast<std::uint32_t>(c));
    WriteU32(out, static_cast<std::uint32_t>(chunk.size()));
    for (const double value : chunk) WriteDouble(out, value);
  }
}

inline void ApplyCowMatrixDelta(std::istream& in, CowMatrix& target) {
  const std::uint64_t new_rows = ReadU64(in);
  Require(new_rows >= target.rows(),
          "ApplyCowMatrixDelta: delta shrinks the matrix");
  RequireDeltaSlotsAvailable(in, new_rows, CowMatrix::kRowsPerChunk,
                             target.num_chunks(), "delta matrix chunk table");
  target.ResizeForDelta(new_rows);
  const std::uint32_t delta_chunks = ReadU32(in);
  Require(delta_chunks <= target.num_chunks(),
          "ApplyCowMatrixDelta: more delta chunks than chunks");
  for (std::uint32_t i = 0; i < delta_chunks; ++i) {
    const std::uint32_t c = ReadU32(in);
    Require(c < target.num_chunks(),
            "ApplyCowMatrixDelta: chunk index out of range");
    const std::uint32_t count = ReadU32(in);
    Require(count <= CowMatrix::kRowsPerChunk * target.cols(),
            "ApplyCowMatrixDelta: oversized chunk");
    std::vector<double> values;
    values.reserve(count);
    for (std::uint32_t e = 0; e < count; ++e) values.push_back(ReadDouble(in));
    target.ApplyChunk(c, std::move(values));
  }
  for (std::size_t c = 0; c < target.num_chunks(); ++c) {
    Require(target.ChunkIdentity(c) != nullptr,
            "ApplyCowMatrixDelta: delta leaves chunk " + std::to_string(c) +
                " unpopulated");
  }
}

}  // namespace grafics
