// Persistent (copy-on-write) chunked containers for structurally shared
// model snapshots.
//
// The serving stack forks the trained model on every ingest fold-in
// (Grafics::Clone) and keeps the parent snapshot serving while the fork is
// mutated and published. A deep copy makes that fork O(model); these
// containers make it O(1): storage is split into fixed-size chunks held
// through shared_ptr, copying a container copies one pointer (the chunk
// table), and the first write to a chunk after a fork copies just that
// chunk. A fold-in batch therefore pays O(delta * chunk) instead of
// O(model), and parent + fork share every untouched chunk byte-for-byte.
//
// Thread-safety contract (the same one BipartiteGraph/EmbeddingStore always
// had): concurrent const reads are safe, including against other forks being
// mutated — a mutator always observes use_count > 1 for anything a reader
// can still reach and copies before writing. Mutating and copying the SAME
// object concurrently is not allowed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/matrix.h"

namespace grafics {

/// Heap-byte split for structurally shared state: a chunk referenced by more
/// than one snapshot counts as shared, a chunk owned exclusively counts as
/// owned. Surfaced through ModelStats so the sharing is observable.
struct CowBytes {
  std::size_t shared_bytes = 0;
  std::size_t owned_bytes = 0;

  CowBytes& operator+=(const CowBytes& other) {
    shared_bytes += other.shared_bytes;
    owned_bytes += other.owned_bytes;
    return *this;
  }
};

/// Append-mostly vector with chunked copy-on-write storage. Reads are O(1)
/// (two pointer hops); copies are O(1); point writes copy at most one chunk.
template <typename T, std::size_t kChunkSize = 256>
class CowVector {
  static_assert(kChunkSize > 0, "CowVector: chunk size must be positive");

 public:
  CowVector() : table_(std::make_shared<Table>()) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    return (*(*table_)[i / kChunkSize])[i % kChunkSize];
  }

  /// Mutable element access; copies the chunk table and/or the element's
  /// chunk first when they are shared with another snapshot.
  T& MutableAt(std::size_t i) {
    Require(i < size_, "CowVector::MutableAt: index out of range");
    return MutableChunk(i / kChunkSize)[i % kChunkSize];
  }

  void PushBack(T value) {
    EnsureOwnedTable();
    if (size_ % kChunkSize == 0) {
      auto chunk = std::make_shared<Chunk>();
      chunk->reserve(kChunkSize);
      table_->push_back(std::move(chunk));
    }
    MutableChunk(size_ / kChunkSize).push_back(std::move(value));
    ++size_;
  }

  /// Identity of the chunk backing element `i` (aliasing tests: two forks
  /// share storage for `i` iff their chunk addresses are equal).
  const void* ChunkAddress(std::size_t i) const {
    return (*table_)[i / kChunkSize].get();
  }

  std::size_t num_chunks() const { return table_->size(); }

  /// Identity of chunk `c`; two snapshots share chunk `c` iff equal.
  const void* ChunkIdentity(std::size_t c) const { return (*table_)[c].get(); }

  /// Read-only view of chunk `c`'s elements (delta serialization).
  std::span<const T> ChunkSpan(std::size_t c) const {
    const Chunk& chunk = *(*table_)[c];
    return {chunk.data(), chunk.size()};
  }

  /// Indices of chunks whose backing storage differs from `base` — exactly
  /// the chunks a delta checkpoint against `base` must carry. A chunk is
  /// skipped only when both tables hold the very same heap block at the
  /// same index, so the result is O(owned chunks), never a content scan.
  std::vector<std::size_t> DiffChunksAgainst(const CowVector& base) const {
    std::vector<std::size_t> diff;
    for (std::size_t c = 0; c < table_->size(); ++c) {
      if (c >= base.table_->size() || (*table_)[c] != (*base.table_)[c]) {
        diff.push_back(c);
      }
    }
    return diff;
  }

  /// Grows the logical size, leaving new chunk slots empty: every chunk
  /// whose contents differ from the loaded base must then arrive through
  /// ApplyChunk before the container is read (delta checkpoint load).
  void ResizeForDelta(std::size_t new_size) {
    Require(new_size >= size_, "CowVector::ResizeForDelta: cannot shrink");
    EnsureOwnedTable();
    size_ = new_size;
    table_->resize(new_size == 0 ? 0
                                 : (new_size + kChunkSize - 1) / kChunkSize);
  }

  /// Replaces chunk `c` wholesale (delta checkpoint load). `values` must be
  /// exactly the chunk's element count at the current size.
  void ApplyChunk(std::size_t c, std::vector<T> values) {
    Require(c < table_->size(), "CowVector::ApplyChunk: chunk out of range");
    const std::size_t expected = std::min(kChunkSize, size_ - c * kChunkSize);
    Require(values.size() == expected,
            "CowVector::ApplyChunk: element count mismatch");
    EnsureOwnedTable();
    (*table_)[c] = std::make_shared<Chunk>(std::move(values));
  }

  bool operator==(const CowVector& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!((*this)[i] == other[i])) return false;
    }
    return true;
  }

  /// Chunk-granular heap accounting; `element_bytes` reports the extra heap
  /// owned by one element (0 for flat types). A chunk is shared when the
  /// whole table is (a fork copied the table pointer) or when the chunk
  /// itself survived a table split.
  template <typename ElementBytesFn>
  CowBytes MemoryBytes(ElementBytesFn&& element_bytes) const {
    CowBytes bytes;
    const bool table_shared = table_.use_count() > 1;
    for (const std::shared_ptr<Chunk>& chunk : *table_) {
      std::size_t b = chunk->capacity() * sizeof(T);
      for (const T& item : *chunk) b += element_bytes(item);
      (table_shared || chunk.use_count() > 1 ? bytes.shared_bytes
                                             : bytes.owned_bytes) += b;
    }
    return bytes;
  }

  CowBytes MemoryBytes() const {
    return MemoryBytes([](const T&) { return std::size_t{0}; });
  }

 private:
  using Chunk = std::vector<T>;
  using Table = std::vector<std::shared_ptr<Chunk>>;

  void EnsureOwnedTable() {
    if (table_.use_count() > 1) table_ = std::make_shared<Table>(*table_);
  }

  Chunk& MutableChunk(std::size_t chunk_index) {
    EnsureOwnedTable();
    std::shared_ptr<Chunk>& slot = (*table_)[chunk_index];
    if (slot.use_count() > 1) {
      auto copy = std::make_shared<Chunk>();
      copy->reserve(kChunkSize);
      copy->assign(slot->begin(), slot->end());
      slot = std::move(copy);
    }
    return *slot;
  }

  std::shared_ptr<Table> table_;
  std::size_t size_ = 0;
};

/// Row-major matrix of doubles with rows grouped into copy-on-write chunks.
/// The embedding-table sibling of CowVector: appending rows (online updates)
/// extends only the tail chunk, writing a row copies only its chunk, and
/// forking shares everything.
class CowMatrix {
 public:
  static constexpr std::size_t kRowsPerChunk = 256;

  CowMatrix() : table_(std::make_shared<Table>()) {}
  explicit CowMatrix(std::size_t cols) : CowMatrix() { cols_ = cols; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::span<const double> Row(std::size_t r) const {
    const Chunk& chunk = *(*table_)[r / kRowsPerChunk];
    return {chunk.data() + (r % kRowsPerChunk) * cols_, cols_};
  }

  /// Mutable row access; copies the row's chunk first when it is shared.
  std::span<double> MutableRow(std::size_t r) {
    Require(r < rows_, "CowMatrix::MutableRow: row out of range");
    Chunk& chunk = MutableChunk(r / kRowsPerChunk);
    return {chunk.data() + (r % kRowsPerChunk) * cols_, cols_};
  }

  /// Appends `count` zero-filled rows; only the tail chunk is copied when
  /// shared, new chunks are allocated at full capacity to avoid churn.
  void AppendRows(std::size_t count) {
    Require(cols_ > 0, "CowMatrix::AppendRows: matrix has no columns");
    EnsureOwnedTable();
    while (count > 0) {
      if (rows_ % kRowsPerChunk == 0) {
        auto chunk = std::make_shared<Chunk>();
        chunk->reserve(kRowsPerChunk * cols_);
        table_->push_back(std::move(chunk));
      }
      const std::size_t in_chunk = rows_ % kRowsPerChunk;
      const std::size_t take = std::min(count, kRowsPerChunk - in_chunk);
      MutableChunk(rows_ / kRowsPerChunk)
          .resize((in_chunk + take) * cols_, 0.0);
      rows_ += take;
      count -= take;
    }
  }

  /// Dense materialization (diagnostics, serialization, tests). O(size).
  Matrix ToMatrix() const {
    Matrix dense(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::span<const double> row = Row(r);
      std::copy(row.begin(), row.end(), dense.Row(r).begin());
    }
    return dense;
  }

  static CowMatrix FromMatrix(const Matrix& dense) {
    CowMatrix m(dense.cols());
    if (dense.rows() == 0) return m;
    m.AppendRows(dense.rows());
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      const std::span<const double> row = dense.Row(r);
      std::copy(row.begin(), row.end(), m.MutableRow(r).begin());
    }
    return m;
  }

  std::size_t num_chunks() const { return table_->size(); }

  /// The chunk starts of a matrix, resolved once, for a reader of many rows
  /// of a matrix that is not written meanwhile: Row skips the shared-table
  /// hops of CowMatrix::Row. Valid until the matrix next writes or grows (a
  /// write may copy a shared chunk).
  class RowTable {
   public:
    explicit RowTable(const CowMatrix& matrix) : cols_(matrix.cols_) {
      starts_.reserve(matrix.num_chunks());
      for (const auto& chunk : *matrix.table_) starts_.push_back(chunk->data());
    }

    const double* Row(std::size_t r) const {
      return starts_[r / kRowsPerChunk] + (r % kRowsPerChunk) * cols_;
    }

   private:
    std::vector<const double*> starts_;
    std::size_t cols_;
  };

  /// Identity of chunk `c`; two snapshots share chunk `c` iff equal.
  const void* ChunkIdentity(std::size_t c) const { return (*table_)[c].get(); }

  /// Read-only view of chunk `c`'s flattened rows (delta serialization).
  std::span<const double> ChunkSpan(std::size_t c) const {
    const Chunk& chunk = *(*table_)[c];
    return {chunk.data(), chunk.size()};
  }

  /// Chunks whose backing storage differs from `base` — the chunks a delta
  /// checkpoint must carry. Pointer comparison only, O(chunks).
  std::vector<std::size_t> DiffChunksAgainst(const CowMatrix& base) const {
    std::vector<std::size_t> diff;
    for (std::size_t c = 0; c < table_->size(); ++c) {
      if (c >= base.table_->size() || (*table_)[c] != (*base.table_)[c]) {
        diff.push_back(c);
      }
    }
    return diff;
  }

  /// Grows the logical row count, leaving new chunk slots empty until
  /// ApplyChunk fills them (delta checkpoint load).
  void ResizeForDelta(std::size_t new_rows) {
    Require(new_rows >= rows_, "CowMatrix::ResizeForDelta: cannot shrink");
    Require(cols_ > 0 || new_rows == 0,
            "CowMatrix::ResizeForDelta: matrix has no columns");
    EnsureOwnedTable();
    rows_ = new_rows;
    table_->resize(
        new_rows == 0 ? 0 : (new_rows + kRowsPerChunk - 1) / kRowsPerChunk);
  }

  /// Replaces chunk `c` wholesale (delta checkpoint load). `values` must
  /// hold exactly the chunk's rows * cols doubles at the current size.
  void ApplyChunk(std::size_t c, std::vector<double> values) {
    Require(c < table_->size(), "CowMatrix::ApplyChunk: chunk out of range");
    const std::size_t chunk_rows =
        std::min(kRowsPerChunk, rows_ - c * kRowsPerChunk);
    Require(values.size() == chunk_rows * cols_,
            "CowMatrix::ApplyChunk: element count mismatch");
    EnsureOwnedTable();
    (*table_)[c] = std::make_shared<Chunk>(std::move(values));
  }

  bool operator==(const CowMatrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::span<const double> a = Row(r);
      const std::span<const double> b = other.Row(r);
      if (!std::equal(a.begin(), a.end(), b.begin())) return false;
    }
    return true;
  }

  CowBytes MemoryBytes() const {
    CowBytes bytes;
    const bool table_shared = table_.use_count() > 1;
    for (const std::shared_ptr<Chunk>& chunk : *table_) {
      const std::size_t b = chunk->capacity() * sizeof(double);
      (table_shared || chunk.use_count() > 1 ? bytes.shared_bytes
                                             : bytes.owned_bytes) += b;
    }
    return bytes;
  }

 private:
  using Chunk = std::vector<double>;
  using Table = std::vector<std::shared_ptr<Chunk>>;

  void EnsureOwnedTable() {
    if (table_.use_count() > 1) table_ = std::make_shared<Table>(*table_);
  }

  Chunk& MutableChunk(std::size_t chunk_index) {
    EnsureOwnedTable();
    std::shared_ptr<Chunk>& slot = (*table_)[chunk_index];
    if (slot.use_count() > 1) {
      auto copy = std::make_shared<Chunk>();
      copy->reserve(kRowsPerChunk * cols_);
      copy->assign(slot->begin(), slot->end());
      slot = std::move(copy);
    }
    return *slot;
  }

  std::shared_ptr<Table> table_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

}  // namespace grafics
