#include "graph/bipartite_graph.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/cow_serialize.h"
#include "common/error.h"
#include "common/serialize.h"

namespace grafics::graph {

BipartiteGraph BipartiteGraph::FromRecords(
    const std::vector<rf::SignalRecord>& records, const WeightFn& weight_fn) {
  BipartiteGraph graph;
  for (const rf::SignalRecord& record : records) {
    graph.AddRecord(record, weight_fn);
  }
  return graph;
}

NodeId BipartiteGraph::NewNode(NodeType type) {
  const auto id = static_cast<NodeId>(meta_.size());
  meta_.PushBack({type, /*active=*/true, /*weighted_degree=*/0.0});
  adjacency_.PushBack({});
  return id;
}

NodeId BipartiteGraph::AddRecord(const rf::SignalRecord& record,
                                 const WeightFn& weight_fn) {
  const NodeId record_node = NewNode(NodeType::kRecord);
  record_nodes_.PushBack(record_node);
  for (const rf::Observation& o : record.observations()) {
    const NodeId mac_node = GetOrAddMacNode(o.mac);
    AddEdge(record_node, mac_node, weight_fn(o.rssi_dbm));
  }
  return record_node;
}

std::optional<NodeId> BipartiteGraph::LookupMac(rf::MacAddress mac) const {
  if (const auto it = mac_delta_.find(mac); it != mac_delta_.end()) {
    return it->second;
  }
  if (mac_base_ != nullptr) {
    if (const auto it = mac_base_->find(mac); it != mac_base_->end()) {
      return it->second;
    }
  }
  return std::nullopt;
}

void BipartiteGraph::CompactMacIndexIfNeeded() {
  if (mac_delta_.size() < kMacDeltaCompactThreshold) return;
  auto merged = mac_base_ != nullptr ? std::make_shared<MacMap>(*mac_base_)
                                     : std::make_shared<MacMap>();
  merged->insert(mac_delta_.begin(), mac_delta_.end());
  mac_base_ = std::move(merged);
  mac_delta_.clear();
}

NodeId BipartiteGraph::GetOrAddMacNode(rf::MacAddress mac) {
  if (const std::optional<NodeId> existing = LookupMac(mac)) {
    Require(meta_[*existing].active,
            "BipartiteGraph: MAC " + mac.ToString() + " was removed");
    return *existing;
  }
  const NodeId id = NewNode(NodeType::kMac);
  mac_delta_.emplace(mac, id);
  ++num_active_macs_;
  CompactMacIndexIfNeeded();
  return id;
}

std::optional<NodeId> BipartiteGraph::FindMacNode(rf::MacAddress mac) const {
  const std::optional<NodeId> node = LookupMac(mac);
  if (!node.has_value() || !meta_[*node].active) return std::nullopt;
  return node;
}

void BipartiteGraph::AddEdge(NodeId record, NodeId mac, double weight) {
  Require(weight > 0.0, "BipartiteGraph::AddEdge: weight must be positive");
  adjacency_.MutableAt(record).push_back({mac, weight});
  adjacency_.MutableAt(mac).push_back({record, weight});
  meta_.MutableAt(record).weighted_degree += weight;
  meta_.MutableAt(mac).weighted_degree += weight;
  total_edge_weight_ += weight;
  ++num_edges_;
}

bool BipartiteGraph::RemoveMacNode(rf::MacAddress mac) {
  const std::optional<NodeId> found = LookupMac(mac);
  if (!found.has_value() || !meta_[*found].active) return false;
  const NodeId mac_node = *found;
  // Copy the neighbor list first: clearing the MAC's adjacency below may
  // copy-on-write the chunk the span points into.
  const std::span<const Neighbor> neighbors = adjacency_[mac_node];
  const std::vector<Neighbor> mac_neighbors(neighbors.begin(),
                                            neighbors.end());
  for (const Neighbor& nb : mac_neighbors) {
    std::vector<Neighbor>& rec_adj = adjacency_.MutableAt(nb.node);
    std::erase_if(rec_adj, [mac_node](const Neighbor& r) {
      return r.node == mac_node;
    });
    meta_.MutableAt(nb.node).weighted_degree -= nb.weight;
    total_edge_weight_ -= nb.weight;
    --num_edges_;
  }
  adjacency_.MutableAt(mac_node).clear();
  NodeMeta& meta = meta_.MutableAt(mac_node);
  meta.weighted_degree = 0.0;
  meta.active = false;
  --num_active_macs_;
  ++removal_epoch_;
  return true;
}

NodeType BipartiteGraph::TypeOf(NodeId node) const {
  Require(node < meta_.size(), "BipartiteGraph::TypeOf: bad node id");
  return meta_[node].type;
}

bool BipartiteGraph::IsActive(NodeId node) const {
  Require(node < meta_.size(), "BipartiteGraph::IsActive: bad node id");
  return meta_[node].active;
}

NodeId BipartiteGraph::RecordNode(std::size_t record_index) const {
  Require(record_index < record_nodes_.size(),
          "BipartiteGraph::RecordNode: index out of range");
  return record_nodes_[record_index];
}

std::size_t BipartiteGraph::RecordIndexOf(NodeId node) const {
  Require(node < meta_.size() && meta_[node].type == NodeType::kRecord,
          "BipartiteGraph::RecordIndexOf: not a record node");
  // Record nodes are appended in order, so binary search works.
  std::size_t lo = 0;
  std::size_t hi = record_nodes_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (record_nodes_[mid] < node) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  Require(lo < record_nodes_.size() && record_nodes_[lo] == node,
          "BipartiteGraph::RecordIndexOf: unknown record node");
  return lo;
}

std::span<const Neighbor> BipartiteGraph::NeighborsOf(NodeId node) const {
  Require(node < adjacency_.size(), "BipartiteGraph::NeighborsOf: bad id");
  return adjacency_[node];
}

double BipartiteGraph::WeightedDegree(NodeId node) const {
  Require(node < meta_.size(), "BipartiteGraph::WeightedDegree: bad id");
  return meta_[node].weighted_degree;
}

bool BipartiteGraph::operator==(const BipartiteGraph& other) const {
  if (meta_.size() != other.meta_.size() ||
      record_nodes_.size() != other.record_nodes_.size() ||
      num_edges_ != other.num_edges_ ||
      num_active_macs_ != other.num_active_macs_ ||
      total_edge_weight_ != other.total_edge_weight_ ||
      NumMacEntries() != other.NumMacEntries()) {
    return false;
  }
  if (!(meta_ == other.meta_) || !(adjacency_ == other.adjacency_) ||
      !(record_nodes_ == other.record_nodes_)) {
    return false;
  }
  // The MAC index is base + delta on both sides with possibly different
  // splits; compare the logical mapping.
  const auto covered_by_other = [&other](const MacMap& entries) {
    for (const auto& [mac, node] : entries) {
      const std::optional<NodeId> theirs = other.LookupMac(mac);
      if (!theirs.has_value() || *theirs != node) return false;
    }
    return true;
  };
  if (!covered_by_other(mac_delta_)) return false;
  if (mac_base_ != nullptr && mac_base_ != other.mac_base_ &&
      !covered_by_other(*mac_base_)) {
    return false;
  }
  return true;
}

CowBytes BipartiteGraph::MemoryBytes() const {
  CowBytes bytes = meta_.MemoryBytes();
  bytes += adjacency_.MemoryBytes([](const std::vector<Neighbor>& adj) {
    return adj.capacity() * sizeof(Neighbor);
  });
  bytes += record_nodes_.MemoryBytes();
  // unordered_map heap usage is implementation-defined; approximate one
  // bucket pointer + one node per entry.
  constexpr std::size_t kMapEntryBytes =
      sizeof(std::pair<rf::MacAddress, NodeId>) + 2 * sizeof(void*);
  if (mac_base_ != nullptr) {
    const std::size_t base_bytes = mac_base_->size() * kMapEntryBytes;
    (mac_base_.use_count() > 1 ? bytes.shared_bytes : bytes.owned_bytes) +=
        base_bytes;
  }
  bytes.owned_bytes += mac_delta_.size() * kMapEntryBytes;
  return bytes;
}

namespace {
constexpr char kGraphMagic[4] = {'G', 'B', 'P', 'G'};
// v1: structure only (degrees/totals rebuilt through AddEdge replay).
// v2: v1 + trailing exact-state block, so a load is bit-identical to the
//     saved graph even when MAC removals made the replayed floating-point
//     accumulations diverge in the last ulp.
constexpr std::uint32_t kGraphVersion = 2;
}  // namespace

void BipartiteGraph::Save(std::ostream& out) const {
  WriteHeader(out, kGraphMagic, kGraphVersion);
  WriteU64(out, meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    WriteU8(out, static_cast<std::uint8_t>(meta_[i].type));
    WriteU8(out, meta_[i].active ? 1 : 0);
  }
  WriteU64(out, record_nodes_.size());
  for (std::size_t i = 0; i < record_nodes_.size(); ++i) {
    WriteU32(out, record_nodes_[i]);
  }
  WriteU64(out, NumMacEntries());
  const auto write_entries = [&out](const MacMap& entries) {
    for (const auto& [mac, node] : entries) {
      WriteU64(out, mac.bits());
      WriteU32(out, node);
    }
  };
  if (mac_base_ != nullptr) write_entries(*mac_base_);
  write_entries(mac_delta_);
  // Record-side adjacency only; the MAC side is rebuilt on load.
  for (std::size_t i = 0; i < record_nodes_.size(); ++i) {
    const std::span<const Neighbor> neighbors = adjacency_[record_nodes_[i]];
    WriteU64(out, neighbors.size());
    for (const Neighbor& nb : neighbors) {
      WriteU32(out, nb.node);
      WriteDouble(out, nb.weight);
    }
  }
  // v2 exact-state block: the replay above reconstructs these by summation,
  // which matches only when no removal ever subtracted from the sums.
  WriteU64(out, removal_epoch_);
  WriteU64(out, num_edges_);
  WriteU64(out, num_active_macs_);
  WriteDouble(out, total_edge_weight_);
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    WriteDouble(out, meta_[i].weighted_degree);
  }
}

BipartiteGraph BipartiteGraph::Load(std::istream& in) {
  const std::uint32_t version = ReadHeader(in, kGraphMagic);
  Require(version >= 1 && version <= kGraphVersion,
          "BipartiteGraph::Load: unsupported format version " +
              std::to_string(version));
  // Every count is bounded by the bytes left before its push loop, and
  // every id is checked against the node table and the bipartition (as in
  // ApplyDelta): hostile or corrupt bytes fail here as an Error, not as a
  // huge allocation or a MAC-MAC edge.
  BipartiteGraph g;
  const std::uint64_t num_nodes = ReadU64(in);
  RequireAvailable(in, num_nodes, 2, "BipartiteGraph::Load: node table");
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    const std::uint8_t type = ReadU8(in);
    Require(type == static_cast<std::uint8_t>(NodeType::kRecord) ||
                type == static_cast<std::uint8_t>(NodeType::kMac),
            "BipartiteGraph::Load: bad node type");
    const bool active = ReadU8(in) != 0;
    g.meta_.PushBack({static_cast<NodeType>(type), active, 0.0});
    g.adjacency_.PushBack({});
  }
  const std::uint64_t num_records = ReadU64(in);
  RequireAvailable(in, num_records, 4, "BipartiteGraph::Load: record table");
  for (std::uint64_t i = 0; i < num_records; ++i) {
    const NodeId node = ReadU32(in);
    Require(node < num_nodes && g.meta_[node].type == NodeType::kRecord,
            "BipartiteGraph::Load: bad record id");
    g.record_nodes_.PushBack(node);
  }
  const std::uint64_t num_macs = ReadU64(in);
  RequireAvailable(in, num_macs, 12, "BipartiteGraph::Load: MAC map");
  auto base = std::make_shared<MacMap>();
  g.num_active_macs_ = 0;
  for (std::uint64_t i = 0; i < num_macs; ++i) {
    const rf::MacAddress mac(ReadU64(in));
    const NodeId node = ReadU32(in);
    Require(node < num_nodes && g.meta_[node].type == NodeType::kMac,
            "BipartiteGraph::Load: bad MAC node id");
    base->emplace(mac, node);
    if (g.meta_[node].active) ++g.num_active_macs_;
  }
  if (!base->empty()) g.mac_base_ = std::move(base);
  // One probe for the whole adjacency section (see BytesLeft): no list is
  // longer than the section, at 12 bytes per edge (u32 MAC id + f64
  // weight).
  const std::uint64_t max_degree = BytesLeft(in) / 12;
  for (std::uint64_t i = 0; i < num_records; ++i) {
    const NodeId record = g.record_nodes_[i];
    const std::uint64_t degree = ReadU64(in);
    Require(degree <= max_degree,
            "BipartiteGraph::Load: neighbor list is larger than the rest of "
            "the stream");
    for (std::uint64_t e = 0; e < degree; ++e) {
      const NodeId mac = ReadU32(in);
      const double weight = ReadDouble(in);
      Require(mac < num_nodes && g.meta_[mac].type == NodeType::kMac,
              "BipartiteGraph::Load: bad edge endpoint");
      g.AddEdge(record, mac, weight);
    }
  }
  if (version >= 2) {
    g.removal_epoch_ = ReadU64(in);
    g.num_edges_ = ReadU64(in);
    g.num_active_macs_ = ReadU64(in);
    g.total_edge_weight_ = ReadDouble(in);
    for (std::uint64_t i = 0; i < num_nodes; ++i) {
      g.meta_.MutableAt(i).weighted_degree = ReadDouble(in);
    }
  }
  return g;
}

void BipartiteGraph::SaveDelta(std::ostream& out,
                               const BipartiteGraph& base) const {
  WriteU64(out, removal_epoch_);
  WriteU64(out, num_edges_);
  WriteU64(out, num_active_macs_);
  WriteDouble(out, total_edge_weight_);
  WriteCowVectorSparseDelta(
      out, meta_, base.meta_,
      [](std::ostream& o, const NodeMeta& meta, const NodeMeta*) {
        WriteU8(o, static_cast<std::uint8_t>(meta.type));
        WriteU8(o, meta.active ? 1 : 0);
        WriteDouble(o, meta.weighted_degree);
      });
  // Folds mostly append to neighbor lists (AddEdge), so each changed list
  // is encoded as the longest prefix it shares with the base plus the
  // rewritten suffix: a K-record fold costs O(new edges), not O(history of
  // every MAC the batch happened to observe). Evictions rewrite from the
  // first divergent entry, which stays correct — just less compact.
  WriteCowVectorSparseDelta(
      out, adjacency_, base.adjacency_,
      [](std::ostream& o, const std::vector<Neighbor>& current,
         const std::vector<Neighbor>* base_list) {
        std::size_t prefix = 0;
        if (base_list != nullptr) {
          const std::size_t limit =
              std::min(current.size(), base_list->size());
          while (prefix < limit && current[prefix] == (*base_list)[prefix]) {
            ++prefix;
          }
        }
        WriteU32(o, static_cast<std::uint32_t>(prefix));
        WriteU32(o, static_cast<std::uint32_t>(current.size() - prefix));
        for (std::size_t i = prefix; i < current.size(); ++i) {
          WriteU32(o, current[i].node);
          WriteDouble(o, current[i].weight);
        }
      });
  WriteCowVectorDelta(out, record_nodes_, base.record_nodes_,
                      [](std::ostream& o, NodeId node) { WriteU32(o, node); });
  const auto write_entries = [&out](const MacMap& entries) {
    for (const auto& [mac, node] : entries) {
      WriteU64(out, mac.bits());
      WriteU32(out, node);
    }
  };
  if (mac_base_ != nullptr && mac_base_ == base.mac_base_) {
    // Shared base map: only the owned delta entries travel. The base's own
    // delta entries are a subset of ours (entries are never erased and this
    // graph forked from `base`), so applying ours over the loaded merged
    // map reproduces the full mapping.
    WriteU8(out, 1);
    WriteU64(out, mac_delta_.size());
    write_entries(mac_delta_);
  } else {
    // The index compacted since the base (or the base had no map): write
    // the merged mapping wholesale.
    WriteU8(out, 0);
    WriteU64(out, NumMacEntries());
    if (mac_base_ != nullptr) write_entries(*mac_base_);
    write_entries(mac_delta_);
  }
}

void BipartiteGraph::ApplyDelta(std::istream& in) {
  removal_epoch_ = ReadU64(in);
  num_edges_ = ReadU64(in);
  num_active_macs_ = ReadU64(in);
  total_edge_weight_ = ReadDouble(in);
  ApplyCowVectorSparseDelta(
      in, meta_, [](std::istream& i, std::size_t, NodeMeta& meta) {
        meta.type = static_cast<NodeType>(ReadU8(i));
        meta.active = ReadU8(i) != 0;
        meta.weighted_degree = ReadDouble(i);
      });
  // Every id below is checked against the node table just applied: the
  // lists are read back by node id (Ego(nb.node), the MAC-side rebuild), so
  // a hostile or corrupt delta must fail here as an Error, not later as an
  // out-of-bounds read. Appended counts are bounded by one probe for the
  // whole section (see BytesLeft), 12 bytes per neighbor (u32 id + f64
  // weight): a hostile count fails here instead of reserving up to 64 GiB.
  const std::uint64_t max_appended = BytesLeft(in) / 12;
  ApplyCowVectorSparseDelta(
      in, adjacency_,
      [this, max_appended](std::istream& i, std::size_t owner,
                           std::vector<Neighbor>& list) {
        Require(owner < meta_.size(),
                "BipartiteGraph::ApplyDelta: neighbor list of no node");
        // Bipartite: a record's neighbors are MACs, a MAC's are records.
        const NodeType neighbor_type = meta_[owner].type == NodeType::kRecord
                                           ? NodeType::kMac
                                           : NodeType::kRecord;
        const std::uint32_t prefix = ReadU32(i);
        Require(prefix <= list.size(),
                "BipartiteGraph::ApplyDelta: neighbor prefix exceeds base");
        list.resize(prefix);
        const std::uint32_t appended = ReadU32(i);
        Require(appended <= max_appended,
                "BipartiteGraph::ApplyDelta: neighbor list is larger than "
                "the rest of the stream");
        list.reserve(std::size_t{prefix} + appended);
        for (std::uint32_t e = 0; e < appended; ++e) {
          const NodeId node = ReadU32(i);
          const double weight = ReadDouble(i);
          Require(node < meta_.size() && meta_[node].type == neighbor_type,
                  "BipartiteGraph::ApplyDelta: bad neighbor id");
          list.push_back({node, weight});
        }
      });
  ApplyCowVectorDelta(in, record_nodes_, [this](std::istream& i) -> NodeId {
    const NodeId node = ReadU32(i);
    Require(node < meta_.size() && meta_[node].type == NodeType::kRecord,
            "BipartiteGraph::ApplyDelta: bad record id");
    return node;
  });
  Require(meta_.size() == adjacency_.size(),
          "BipartiteGraph::ApplyDelta: meta/adjacency size mismatch");
  const std::uint8_t shared_base = ReadU8(in);
  const std::uint64_t entries = ReadU64(in);
  auto merged = shared_base != 0 && mac_base_ != nullptr
                    ? std::make_shared<MacMap>(*mac_base_)
                    : std::make_shared<MacMap>();
  for (std::uint64_t i = 0; i < entries; ++i) {
    const rf::MacAddress mac(ReadU64(in));
    const NodeId node = ReadU32(in);
    Require(node < meta_.size(),
            "BipartiteGraph::ApplyDelta: bad MAC node id");
    (*merged)[mac] = node;
  }
  mac_base_ = std::move(merged);
  mac_delta_.clear();
}

std::vector<Edge> BipartiteGraph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (std::size_t i = 0; i < record_nodes_.size(); ++i) {
    const NodeId record = record_nodes_[i];
    for (const Neighbor& nb : adjacency_[record]) {
      edges.push_back({record, nb.node, nb.weight});
    }
  }
  return edges;
}

}  // namespace grafics::graph
