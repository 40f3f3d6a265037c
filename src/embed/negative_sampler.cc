#include "embed/negative_sampler.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/cow_serialize.h"
#include "common/error.h"
#include "common/serialize.h"

namespace grafics::embed {

double NegativeSamplerSet::NodeWeight(const graph::BipartiteGraph& graph,
                                      graph::NodeId node) {
  if (!graph.IsActive(node) || graph.Degree(node) == 0) return 0.0;
  return std::pow(static_cast<double>(graph.Degree(node)), 0.75);
}

NegativeSamplerSet NegativeSamplerSet::Build(
    const graph::BipartiteGraph& graph) {
  NegativeSamplerSet set;
  std::vector<double> weights;
  std::vector<graph::NodeId> nodes;
  double total = 0.0;
  for (graph::NodeId node = 0; node < graph.NumNodes(); ++node) {
    const double weight = NodeWeight(graph, node);
    set.included_weight_.PushBack(weight);
    if (weight <= 0.0) continue;
    nodes.push_back(node);
    weights.push_back(weight);
    total += weight;
  }
  Require(!weights.empty(), "BuildNegativeSampler: no active nodes");
  auto group = std::make_shared<const Group>(
      Group{AliasSampler(weights), std::move(nodes), total});
  set.groups_.push_back(std::move(group));
  set.removal_epoch_ = graph.removal_epoch();
  return set;
}

NegativeSamplerSet NegativeSamplerSet::Extended(
    const graph::BipartiteGraph& graph,
    std::span<const graph::NodeId> touched) const {
  if (groups_.empty() || removal_epoch_ != graph.removal_epoch() ||
      groups_.size() >= kMaxGroups) {
    return Build(graph);
  }
  NegativeSamplerSet next = *this;  // shares every group + weight chunks
  while (next.included_weight_.size() < graph.NumNodes()) {
    next.included_weight_.PushBack(0.0);
  }
  std::vector<double> corrections;
  std::vector<graph::NodeId> nodes;
  double total = 0.0;
  for (const graph::NodeId node : touched) {
    const double target = NodeWeight(graph, node);
    const double already = next.included_weight_[node];
    if (target < already) return Build(graph);  // degree shrank: exact reset
    const double correction = target - already;
    if (correction <= 0.0) continue;
    nodes.push_back(node);
    corrections.push_back(correction);
    total += correction;
    next.included_weight_.MutableAt(node) = target;
  }
  if (nodes.empty()) return next;
  auto group = std::make_shared<const Group>(
      Group{AliasSampler(corrections), std::move(nodes), total});
  next.groups_.push_back(std::move(group));
  next.RebuildGroupPicker();
  return next;
}

void NegativeSamplerSet::RebuildGroupPicker() {
  std::vector<double> totals;
  totals.reserve(groups_.size());
  for (const std::shared_ptr<const Group>& group : groups_) {
    totals.push_back(group->total_weight);
  }
  group_picker_ = AliasSampler(totals);
}

std::size_t NegativeSamplerSet::num_entries() const {
  std::size_t entries = 0;
  for (const std::shared_ptr<const Group>& group : groups_) {
    entries += group->node_of_index.size();
  }
  return entries;
}

double NegativeSamplerSet::ProbabilityOf(graph::NodeId node) const {
  double total = 0.0;
  for (const std::shared_ptr<const Group>& group : groups_) {
    total += group->total_weight;
  }
  if (total <= 0.0) return 0.0;
  double mass = 0.0;
  for (const std::shared_ptr<const Group>& group : groups_) {
    for (std::size_t i = 0; i < group->node_of_index.size(); ++i) {
      if (group->node_of_index[i] != node) continue;
      mass += group->total_weight * group->alias.ProbabilityOf(i);
    }
  }
  return mass / total;
}

namespace {

constexpr char kSamplerMagic[4] = {'G', 'N', 'S', 'S'};
constexpr std::uint32_t kSamplerVersion = 1;

}  // namespace

void NegativeSamplerSet::Save(std::ostream& out) const {
  WriteHeader(out, kSamplerMagic, kSamplerVersion);
  WriteU64(out, removal_epoch_);
  WriteU32(out, static_cast<std::uint32_t>(groups_.size()));
  for (const std::shared_ptr<const Group>& group : groups_) {
    group->alias.Save(out);
    WriteU64(out, group->node_of_index.size());
    for (const graph::NodeId node : group->node_of_index) WriteU32(out, node);
    WriteDouble(out, group->total_weight);
  }
  WriteU64(out, included_weight_.size());
  for (std::size_t i = 0; i < included_weight_.size(); ++i) {
    WriteDouble(out, included_weight_[i]);
  }
}

NegativeSamplerSet NegativeSamplerSet::Load(std::istream& in) {
  CheckHeader(in, kSamplerMagic, kSamplerVersion);
  NegativeSamplerSet set;
  set.removal_epoch_ = ReadU64(in);
  const std::uint32_t num_groups = ReadU32(in);
  Require(num_groups <= kMaxGroups,
          "NegativeSamplerSet::Load: too many groups");
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    Group group;
    group.alias = AliasSampler::Load(in);
    const std::uint64_t nodes = ReadU64(in);
    Require(nodes == group.alias.size(),
            "NegativeSamplerSet::Load: group size mismatch");
    group.node_of_index.resize(nodes);
    for (graph::NodeId& node : group.node_of_index) node = ReadU32(in);
    group.total_weight = ReadDouble(in);
    set.groups_.push_back(std::make_shared<const Group>(std::move(group)));
  }
  const std::uint64_t weights = ReadU64(in);
  for (std::uint64_t i = 0; i < weights; ++i) {
    set.included_weight_.PushBack(ReadDouble(in));
  }
  if (set.groups_.size() > 1) set.RebuildGroupPicker();
  return set;
}

void NegativeSamplerSet::SaveDelta(std::ostream& out,
                                   const NegativeSamplerSet& base) const {
  WriteU64(out, removal_epoch_);
  // Extended() only ever appends groups, so the groups shared with the base
  // form a prefix; a compaction rebuild shares none (prefix 0, full write).
  std::size_t prefix = 0;
  while (prefix < groups_.size() && prefix < base.groups_.size() &&
         groups_[prefix] == base.groups_[prefix]) {
    ++prefix;
  }
  WriteU32(out, static_cast<std::uint32_t>(groups_.size()));
  WriteU32(out, static_cast<std::uint32_t>(prefix));
  for (std::size_t g = prefix; g < groups_.size(); ++g) {
    const Group& group = *groups_[g];
    group.alias.Save(out);
    WriteU64(out, group.node_of_index.size());
    for (const graph::NodeId node : group.node_of_index) WriteU32(out, node);
    WriteDouble(out, group.total_weight);
  }
  WriteCowVectorDelta(out, included_weight_, base.included_weight_,
                      [](std::ostream& o, double w) { WriteDouble(o, w); });
}

void NegativeSamplerSet::ApplyDelta(std::istream& in) {
  removal_epoch_ = ReadU64(in);
  const std::uint32_t total_groups = ReadU32(in);
  const std::uint32_t prefix = ReadU32(in);
  Require(total_groups <= kMaxGroups && prefix <= total_groups &&
              prefix <= groups_.size(),
          "NegativeSamplerSet::ApplyDelta: group prefix mismatch");
  groups_.resize(prefix);
  for (std::uint32_t g = prefix; g < total_groups; ++g) {
    Group group;
    group.alias = AliasSampler::Load(in);
    const std::uint64_t nodes = ReadU64(in);
    Require(nodes == group.alias.size(),
            "NegativeSamplerSet::ApplyDelta: group size mismatch");
    group.node_of_index.resize(nodes);
    for (graph::NodeId& node : group.node_of_index) node = ReadU32(in);
    group.total_weight = ReadDouble(in);
    groups_.push_back(std::make_shared<const Group>(std::move(group)));
  }
  ApplyCowVectorDelta(in, included_weight_,
                      [](std::istream& i) { return ReadDouble(i); });
  if (groups_.size() > 1) {
    RebuildGroupPicker();
  } else {
    group_picker_ = AliasSampler();
  }
}

CowBytes NegativeSamplerSet::MemoryBytes() const {
  CowBytes bytes = included_weight_.MemoryBytes();
  for (const std::shared_ptr<const Group>& group : groups_) {
    // Alias table: probability + alias + normalized arrays.
    const std::size_t b =
        group->node_of_index.capacity() * sizeof(graph::NodeId) +
        group->alias.size() * (2 * sizeof(double) + sizeof(std::size_t));
    (group.use_count() > 1 ? bytes.shared_bytes : bytes.owned_bytes) += b;
  }
  return bytes;
}

}  // namespace grafics::embed
