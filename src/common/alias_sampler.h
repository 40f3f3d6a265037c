// Walker alias method for O(1) sampling from a fixed discrete distribution.
//
// Used for two hot paths in E-LINE training: sampling edges proportionally to
// their weight, and sampling negative nodes proportionally to degree^{3/4}.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace grafics {

/// Immutable discrete distribution supporting O(1) draws after O(n) setup.
class AliasSampler {
 public:
  /// Temporaries of a table build, kept by callers that rebuild often.
  struct BuildScratch {
    std::vector<double> scaled;
    std::vector<std::size_t> small;
    std::vector<std::size_t> large;
  };

  AliasSampler() = default;

  /// Builds the alias table from non-negative weights (not all zero).
  explicit AliasSampler(const std::vector<double>& weights);

  /// Rebuilds this sampler from `weights` in place: the same table, and so
  /// the same draws, as AliasSampler(weights), but reusing this sampler's
  /// and `scratch`'s storage, so it allocates nothing once their capacities
  /// cover weights.size().
  void Assign(std::span<const double> weights, BuildScratch& scratch);

  /// Draws an index in [0, size()) with probability proportional to weight.
  /// Forced inline: the per-query refine loop draws 1 + 2K of these per
  /// step, and at its size the compiler would otherwise keep it a call.
  /// The bucket-or-alias choice is a mask, not a branch: for most buckets
  /// it is a coin flip the branch predictor cannot learn.
  [[gnu::always_inline]] std::size_t Sample(Rng& rng) const {
    Require(!empty(), "AliasSampler::Sample on empty sampler");
    const std::size_t bucket = rng.NextIndex(probability_.size());
    const std::size_t alias = alias_[bucket];
    const std::size_t keep_bucket =
        rng.NextDouble() < probability_[bucket] ? ~std::size_t{0} : 0;
    return alias ^ ((bucket ^ alias) & keep_bucket);
  }

  std::size_t size() const { return probability_.size(); }
  bool empty() const { return probability_.empty(); }

  /// Normalized probability of index i (for tests).
  double ProbabilityOf(std::size_t i) const;

  /// Serializes the table state verbatim (buckets, aliases, normalized
  /// weights), so Load reproduces the exact draw sequence of this sampler —
  /// rebuilding from weights is not guaranteed FP-identical.
  void Save(std::ostream& out) const;
  static AliasSampler Load(std::istream& in);

 private:
  std::vector<double> probability_;   // acceptance threshold per bucket
  std::vector<std::size_t> alias_;    // fallback index per bucket
  std::vector<double> normalized_;    // exact normalized input weights
};

}  // namespace grafics
