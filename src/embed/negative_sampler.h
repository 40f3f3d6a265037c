// Incrementally extendable negative-sampling distribution.
//
// The paper's negative sampler draws node z with probability proportional to
// deg(z)^{3/4} over active nodes (Sec. IV-B). The original implementation
// rebuilt one flat alias table over every node after each Update fold-in —
// O(|V|) per batch, which dominates an O(delta) copy-on-write fold. This set
// keeps the distribution EXACT while amortizing the rebuild:
//
//  * the table is a collection of immutable groups, each an alias table over
//    (node, weight-contribution) entries, shared between snapshots through
//    shared_ptr;
//  * extending after a fold appends ONE new group holding the new nodes'
//    weights plus positive corrections (deg_new^{3/4} - deg_old^{3/4}) for
//    existing nodes whose degree grew — O(delta) work, every prior group
//    shared untouched;
//  * a draw picks a group proportionally to its total weight, then an entry
//    within the group, so P(z) = sum of z's contributions / total — exactly
//    deg(z)^{3/4}-proportional at the current degrees;
//  * after kMaxGroups extensions (or any degree shrink, detected through
//    BipartiteGraph::removal_epoch) the set compacts back to one group,
//    bounding both draw overhead and memory — classic amortized doubling.
//
// With a single group the draw consumes exactly the RNG stream of the
// historical flat table, so models that never folded produce bit-identical
// predictions to the pre-chunking implementation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/alias_sampler.h"
#include "common/cow.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/bipartite_graph.h"

namespace grafics::embed {

class NegativeSamplerSet {
 public:
  /// Groups beyond this trigger a compacting full rebuild on Extended.
  static constexpr std::size_t kMaxGroups = 64;

  NegativeSamplerSet() = default;

  /// Full build: one group over every active node with degree > 0, same
  /// distribution (and RNG consumption) as the historical flat table.
  /// Throws grafics::Error when the graph has no such node.
  static NegativeSamplerSet Build(const graph::BipartiteGraph& graph);

  /// O(delta) extension after `touched` nodes (new nodes + nodes that
  /// gained edges) changed degree: returns a set sharing every existing
  /// group, plus at most one new group of corrections. Falls back to a full
  /// Build when the set is empty, degrees shrank (MAC retirement), or the
  /// group budget is exhausted. Deterministic: the result depends only on
  /// this set, the graph, and `touched`.
  NegativeSamplerSet Extended(const graph::BipartiteGraph& graph,
                              std::span<const graph::NodeId> touched) const;

  /// Draws a node id with probability proportional to deg^{3/4}. Inline:
  /// the per-query refine loop draws 2K of these per step.
  graph::NodeId SampleNode(Rng& rng) const {
    Require(!groups_.empty(), "NegativeSamplerSet::SampleNode: empty set");
    // Single group (every model that has not folded since its last
    // compaction): one alias draw, bit-identical to the historical flat
    // table. Multiple groups: one extra draw picks the group first.
    if (groups_.size() == 1) {
      const Group& only = *groups_.front();
      return only.node_of_index[only.alias.Sample(rng)];
    }
    const Group& group = *groups_[group_picker_.Sample(rng)];
    return group.node_of_index[group.alias.Sample(rng)];
  }

  bool empty() const { return groups_.empty(); }
  std::size_t num_groups() const { return groups_.size(); }
  /// Total table entries across all groups (>= distinct nodes).
  std::size_t num_entries() const;

  /// Exact normalized probability of drawing `node` — O(entries), tests
  /// assert it matches a fresh Build after incremental extensions.
  double ProbabilityOf(graph::NodeId node) const;

  /// Chunk/group-granular heap accounting, split shared vs owned.
  CowBytes MemoryBytes() const;

  /// Exact serialization: every group's alias internals round-trip verbatim,
  /// so a loaded set consumes the same RNG stream as the live one — a
  /// rebuild from degrees would share the distribution but not the draws.
  void Save(std::ostream& out) const;
  static NegativeSamplerSet Load(std::istream& in);

  /// Delta against `base`: groups shared by pointer are written as a prefix
  /// count, only appended groups and owned included-weight chunks serialize
  /// — O(delta), not O(nodes). ApplyDelta mutates a set loaded from the
  /// base's artifact into this set's exact state.
  void SaveDelta(std::ostream& out, const NegativeSamplerSet& base) const;
  void ApplyDelta(std::istream& in);

 private:
  struct Group {
    AliasSampler alias;
    std::vector<graph::NodeId> node_of_index;
    double total_weight = 0.0;
  };

  static double NodeWeight(const graph::BipartiteGraph& graph,
                           graph::NodeId node);
  void RebuildGroupPicker();

  std::vector<std::shared_ptr<const Group>> groups_;
  /// Over group total weights; only consulted when there are >= 2 groups.
  AliasSampler group_picker_;
  /// Per node: the deg^{3/4} weight already accounted for across groups.
  CowVector<double, 1024> included_weight_;
  /// BipartiteGraph::removal_epoch at build time; a mismatch means degrees
  /// may have shrunk and corrections alone cannot express that.
  std::uint64_t removal_epoch_ = 0;
};

}  // namespace grafics::embed
