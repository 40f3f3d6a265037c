#include "embed/embedding_overlay.h"

#include <algorithm>

#include "common/error.h"

namespace grafics::embed {

EmbeddingOverlay::EmbeddingOverlay(const EmbeddingStore& base)
    : base_ego_(base.EgoRows()),
      base_context_(base.ContextRows()),
      base_rows_(base.num_nodes()),
      dim_(base.dim()) {
  Require(dim_ > 0, "EmbeddingOverlay: base store is empty");
}

void EmbeddingOverlay::Grow(std::size_t count, Rng& rng) {
  const std::size_t first = scratch_rows_;
  scratch_rows_ += count;
  if (scratch_ego_.size() < scratch_rows_ * dim_) {
    scratch_ego_.resize(scratch_rows_ * dim_);
    scratch_context_.resize(scratch_rows_ * dim_);
  }
  const double scale = 0.5 / static_cast<double>(dim_);
  for (std::size_t r = first; r < scratch_rows_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      scratch_ego_[r * dim_ + c] = rng.Uniform(-scale, scale);
      scratch_context_[r * dim_ + c] = 0.0;
    }
  }
}

void EmbeddingOverlay::ThrowBadNode(const char* what) {
  throw Error(std::string(what) + ": bad node id");
}

std::span<double> EmbeddingOverlay::ScratchRow(std::vector<double>& table,
                                               graph::NodeId node,
                                               const char* what) {
  // Message built only on the throw path: this accessor sits in the
  // per-query SGD refinement loop.
  if (node < base_rows_ || node - base_rows_ >= scratch_rows_) {
    throw Error(std::string(what) + ": base rows are frozen");
  }
  return {table.data() + (node - base_rows_) * dim_, dim_};
}

std::span<double> EmbeddingOverlay::Ego(graph::NodeId node) {
  return ScratchRow(scratch_ego_, node, "EmbeddingOverlay::Ego");
}

std::span<double> EmbeddingOverlay::Context(graph::NodeId node) {
  return ScratchRow(scratch_context_, node, "EmbeddingOverlay::Context");
}

}  // namespace grafics::embed
