// Storage for the two per-node embedding tables LINE/E-LINE learn.
//
// Every node i has an 'ego' embedding u_i (the representation used
// downstream) and a 'context' embedding u'_i (encoding its neighborhood).
//
// Rows live in copy-on-write chunks (common/cow.h): copying a store shares
// every chunk with the copy, Grow appends rows without touching existing
// chunks, and writing a row copies only that row's chunk. This is what makes
// an ingest fold-in O(new rows) instead of O(tables) — the base model's rows
// are frozen during online refinement (Sec. V-A), so a fork never copies
// them at all.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>

#include "common/cow.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "graph/bipartite_graph.h"

namespace grafics::embed {

class EmbeddingStore {
 public:
  EmbeddingStore() = default;

  /// Allocates tables for `num_nodes` nodes of dimension `dim`.
  /// Ego embeddings are initialized uniform in [-0.5, 0.5]/dim (the LINE
  /// reference initialization); context embeddings start at zero.
  EmbeddingStore(std::size_t num_nodes, std::size_t dim, Rng& rng);

  std::size_t num_nodes() const { return ego_.rows(); }
  std::size_t dim() const { return ego_.cols(); }

  /// Mutable row access copies the row's chunk when it is shared with
  /// another snapshot (training and refinement own their chunks, so the
  /// hot path never copies).
  std::span<double> Ego(graph::NodeId node) { return ego_.MutableRow(node); }
  std::span<const double> Ego(graph::NodeId node) const {
    return ego_.Row(node);
  }
  std::span<double> Context(graph::NodeId node) {
    return context_.MutableRow(node);
  }
  std::span<const double> Context(graph::NodeId node) const {
    return context_.Row(node);
  }

  /// Raw row addresses of each table (CowMatrix::RowTable), for readers
  /// of many rows. Valid until this store next writes or grows.
  CowMatrix::RowTable EgoRows() const { return CowMatrix::RowTable(ego_); }
  CowMatrix::RowTable ContextRows() const {
    return CowMatrix::RowTable(context_);
  }

  /// Appends `count` freshly-initialized nodes (online inference grows the
  /// graph). Existing rows are preserved — and, since the tables are
  /// chunked, shared untouched with any fork of this store.
  void Grow(std::size_t count, Rng& rng);

  /// Dense materializations of the tables (diagnostics, tests). O(size).
  Matrix ego_matrix() const { return ego_.ToMatrix(); }
  Matrix context_matrix() const { return context_.ToMatrix(); }

  /// Chunk-granular heap accounting, split shared vs owned.
  CowBytes MemoryBytes() const;

  /// Binary (de)serialization of both tables.
  void Save(std::ostream& out) const;
  static EmbeddingStore Load(std::istream& in);

  /// Delta against `base` (a store this one was forked from): only the row
  /// chunks this store owns relative to the base are written — O(owned
  /// chunks), not O(tables). ApplyDelta mutates a store loaded from the
  /// base's artifact into this store's exact state.
  void SaveDelta(std::ostream& out, const EmbeddingStore& base) const;
  void ApplyDelta(std::istream& in);

  /// Deep value equality (chunk sharing is invisible to ==).
  bool operator==(const EmbeddingStore& other) const {
    return ego_ == other.ego_ && context_ == other.context_;
  }

 private:
  void InitRow(std::size_t row, Rng& rng);

  CowMatrix ego_;
  CowMatrix context_;
};

}  // namespace grafics::embed
