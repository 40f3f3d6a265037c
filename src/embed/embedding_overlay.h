// Copy-on-write extension of a frozen EmbeddingStore.
//
// The online-refinement path (paper Sec. V-A) optimizes only the rows of
// freshly added nodes while every base embedding stays frozen. Growing the
// shared EmbeddingStore per query both mutates the trained model and copies
// the full tables (EmbeddingStore::Grow reallocates). EmbeddingOverlay keeps
// the base store immutable and stores scratch rows (node ids >=
// base.num_nodes()) in small flat buffers that are reset — capacity kept —
// between queries.
//
// The base store must outlive the overlay and must not be written or grown
// while the overlay is alive: the constructor resolves the base tables' row
// addresses once (CowMatrix::RowTable), and base-row reads go through them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "embed/embedding_store.h"
#include "graph/bipartite_graph.h"

namespace grafics::embed {

class EmbeddingOverlay {
 public:
  explicit EmbeddingOverlay(const EmbeddingStore& base);

  std::size_t dim() const { return dim_; }
  std::size_t base_rows() const { return base_rows_; }
  std::size_t scratch_rows() const { return scratch_rows_; }
  std::size_t num_nodes() const { return base_rows_ + scratch_rows_; }

  /// Appends `count` scratch rows initialized exactly like
  /// EmbeddingStore::Grow (ego uniform in [-0.5, 0.5]/dim, context zero).
  void Grow(std::size_t count, Rng& rng);

  /// Read access to any node: base rows come from the frozen store,
  /// scratch rows from the overlay. Inline: the per-query refine loop reads
  /// 2 + 2K rows per step.
  std::span<const double> Ego(graph::NodeId node) const {
    return {ReadRow(base_ego_, scratch_ego_, node, "EmbeddingOverlay::Ego"),
            dim_};
  }
  std::span<const double> Context(graph::NodeId node) const {
    return {ReadRow(base_context_, scratch_context_, node,
                    "EmbeddingOverlay::Context"),
            dim_};
  }

  /// Write access is restricted to scratch rows — the base model is frozen.
  std::span<double> Ego(graph::NodeId node);
  std::span<double> Context(graph::NodeId node);

  /// Drops all scratch rows, keeping buffer capacity for reuse.
  void Reset() { scratch_rows_ = 0; }

 private:
  const double* ReadRow(const CowMatrix::RowTable& base,
                        const std::vector<double>& scratch,
                        graph::NodeId node, const char* what) const {
    if (node < base_rows_) return base.Row(node);
    if (node - base_rows_ >= scratch_rows_) ThrowBadNode(what);
    return scratch.data() + (node - base_rows_) * dim_;
  }
  [[noreturn]] static void ThrowBadNode(const char* what);
  std::span<double> ScratchRow(std::vector<double>& table,
                               graph::NodeId node, const char* what);

  CowMatrix::RowTable base_ego_;
  CowMatrix::RowTable base_context_;
  std::size_t base_rows_;
  std::size_t dim_;
  std::size_t scratch_rows_ = 0;
  std::vector<double> scratch_ego_;
  std::vector<double> scratch_context_;
};

}  // namespace grafics::embed
