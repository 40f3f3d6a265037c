#include "common/alias_sampler.h"

#include <numeric>

#include "common/error.h"
#include "common/serialize.h"

namespace grafics {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  BuildScratch scratch;
  Assign(weights, scratch);
}

void AliasSampler::Assign(std::span<const double> weights,
                          BuildScratch& scratch) {
  Require(!weights.empty(), "AliasSampler: weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    Require(w >= 0.0, "AliasSampler: weights must be non-negative");
    total += w;
  }
  Require(total > 0.0, "AliasSampler: at least one weight must be positive");

  const std::size_t n = weights.size();
  probability_.assign(n, 0.0);
  alias_.assign(n, 0);
  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Scaled probabilities; split into under- and over-full buckets.
  std::vector<double>& scaled = scratch.scaled;
  scaled.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalized_[i] * static_cast<double>(n);
  }
  std::vector<std::size_t>& small = scratch.small;
  std::vector<std::size_t>& large = scratch.large;
  small.clear();
  large.clear();
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) probability_[i] = 1.0;
  for (std::size_t i : small) probability_[i] = 1.0;  // numerical leftovers
}

double AliasSampler::ProbabilityOf(std::size_t i) const {
  Require(i < normalized_.size(), "AliasSampler::ProbabilityOf out of range");
  return normalized_[i];
}

void AliasSampler::Save(std::ostream& out) const {
  WriteU64(out, probability_.size());
  for (const double p : probability_) WriteDouble(out, p);
  for (const std::size_t a : alias_) WriteU64(out, a);
  for (const double n : normalized_) WriteDouble(out, n);
}

AliasSampler AliasSampler::Load(std::istream& in) {
  AliasSampler sampler;
  const std::uint64_t n = ReadU64(in);
  // Three 8-byte tables follow; a count the stream cannot hold is an Error,
  // not a hostile-sized allocation.
  RequireAvailable(in, n, 24, "alias sampler table");
  sampler.probability_.resize(n);
  for (double& p : sampler.probability_) p = ReadDouble(in);
  sampler.alias_.resize(n);
  for (std::size_t& a : sampler.alias_) {
    a = ReadU64(in);
    Require(a < n, "AliasSampler::Load: alias index out of range");
  }
  sampler.normalized_.resize(n);
  for (double& v : sampler.normalized_) v = ReadDouble(in);
  return sampler;
}

}  // namespace grafics
