#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"

namespace grafics::graph {
namespace {

rf::SignalRecord MakeRecord(std::initializer_list<std::pair<int, double>> obs) {
  rf::SignalRecord r;
  for (const auto& [mac, rssi] : obs) {
    r.Add(rf::MacAddress(static_cast<std::uint64_t>(mac)), rssi);
  }
  return r;
}

const WeightFn kWeight = OffsetWeight(120.0);

TEST(BipartiteGraphTest, EmptyGraph) {
  BipartiteGraph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumRecords(), 0u);
  EXPECT_EQ(g.NumMacs(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(BipartiteGraphTest, PaperFigure4Example) {
  // v1: MAC1 -66, MAC2 -60; v2: MAC2 -70, MAC3 -70 (paper Fig. 2/4).
  BipartiteGraph g;
  const NodeId v1 = g.AddRecord(MakeRecord({{1, -66.0}, {2, -60.0}}), kWeight);
  const NodeId v2 = g.AddRecord(MakeRecord({{2, -70.0}, {3, -70.0}}), kWeight);
  EXPECT_EQ(g.NumRecords(), 2u);
  EXPECT_EQ(g.NumMacs(), 3u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.TypeOf(v1), NodeType::kRecord);

  const NodeId mac2 = *g.FindMacNode(rf::MacAddress(2));
  EXPECT_EQ(g.TypeOf(mac2), NodeType::kMac);
  EXPECT_EQ(g.Degree(mac2), 2u);                       // both records
  EXPECT_DOUBLE_EQ(g.WeightedDegree(mac2), 60.0 + 50.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(v1), 54.0 + 60.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(v2), 50.0 + 50.0);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 54 + 60 + 50 + 50);
}

TEST(BipartiteGraphTest, SharedMacsReuseNodes) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -60.0}}), kWeight);
  g.AddRecord(MakeRecord({{1, -70.0}}), kWeight);
  EXPECT_EQ(g.NumMacs(), 1u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(BipartiteGraphTest, RecordNodeRoundTrip) {
  BipartiteGraph g;
  for (int i = 0; i < 5; ++i) {
    g.AddRecord(MakeRecord({{i, -60.0}, {i + 1, -70.0}}), kWeight);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.RecordIndexOf(g.RecordNode(i)), i);
  }
  EXPECT_THROW(g.RecordNode(5), Error);
  // A MAC node is not a record node.
  const NodeId mac = *g.FindMacNode(rf::MacAddress(0));
  EXPECT_THROW(g.RecordIndexOf(mac), Error);
}

TEST(BipartiteGraphTest, NeighborsAreBidirectional) {
  BipartiteGraph g;
  const NodeId v = g.AddRecord(MakeRecord({{7, -50.0}}), kWeight);
  const NodeId m = *g.FindMacNode(rf::MacAddress(7));
  ASSERT_EQ(g.NeighborsOf(v).size(), 1u);
  ASSERT_EQ(g.NeighborsOf(m).size(), 1u);
  EXPECT_EQ(g.NeighborsOf(v)[0].node, m);
  EXPECT_EQ(g.NeighborsOf(m)[0].node, v);
  EXPECT_DOUBLE_EQ(g.NeighborsOf(v)[0].weight, 70.0);
}

TEST(BipartiteGraphTest, EmptyRecordMakesIsolatedNode) {
  BipartiteGraph g;
  const NodeId v = g.AddRecord(rf::SignalRecord(), kWeight);
  EXPECT_EQ(g.NumRecords(), 1u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.NeighborsOf(v).empty());
}

TEST(BipartiteGraphTest, EdgesListMatchesAdjacency) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -66.0}, {2, -60.0}}), kWeight);
  g.AddRecord(MakeRecord({{2, -70.0}, {3, -70.0}}), kWeight);
  const std::vector<Edge> edges = g.Edges();
  ASSERT_EQ(edges.size(), 4u);
  double total = 0.0;
  for (const Edge& e : edges) {
    EXPECT_EQ(g.TypeOf(e.record), NodeType::kRecord);
    EXPECT_EQ(g.TypeOf(e.mac), NodeType::kMac);
    total += e.weight;
  }
  EXPECT_DOUBLE_EQ(total, g.TotalEdgeWeight());
}

TEST(BipartiteGraphTest, RemoveMacNode) {
  BipartiteGraph g;
  const NodeId v1 = g.AddRecord(MakeRecord({{1, -66.0}, {2, -60.0}}), kWeight);
  g.AddRecord(MakeRecord({{2, -70.0}, {3, -70.0}}), kWeight);
  EXPECT_TRUE(g.RemoveMacNode(rf::MacAddress(2)));
  EXPECT_EQ(g.NumMacs(), 2u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_FALSE(g.FindMacNode(rf::MacAddress(2)).has_value());
  EXPECT_EQ(g.Degree(v1), 1u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(v1), 54.0);
  // Removing again reports false.
  EXPECT_FALSE(g.RemoveMacNode(rf::MacAddress(2)));
  // Unknown MAC reports false.
  EXPECT_FALSE(g.RemoveMacNode(rf::MacAddress(99)));
}

TEST(BipartiteGraphTest, ReAddingRemovedMacThrows) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -66.0}}), kWeight);
  ASSERT_TRUE(g.RemoveMacNode(rf::MacAddress(1)));
  // The paper models AP removal as permanent; a fresh install gets a new
  // BSSID in practice, so re-adding the dead MAC is a caller bug.
  EXPECT_THROW(g.AddRecord(MakeRecord({{1, -60.0}}), kWeight), Error);
}

TEST(BipartiteGraphTest, FromRecordsBatchMatchesIncremental) {
  std::vector<rf::SignalRecord> records;
  records.push_back(MakeRecord({{1, -66.0}, {2, -60.0}}));
  records.push_back(MakeRecord({{2, -70.0}, {3, -70.0}}));
  const BipartiteGraph batch = BipartiteGraph::FromRecords(records, kWeight);
  BipartiteGraph incremental;
  for (const auto& r : records) incremental.AddRecord(r, kWeight);
  EXPECT_EQ(batch.NumNodes(), incremental.NumNodes());
  EXPECT_EQ(batch.NumEdges(), incremental.NumEdges());
  EXPECT_DOUBLE_EQ(batch.TotalEdgeWeight(), incremental.TotalEdgeWeight());
}

TEST(BipartiteGraphTest, GrowsIncrementallyAfterQueries) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -60.0}}), kWeight);
  const std::size_t nodes_before = g.NumNodes();
  g.AddRecord(MakeRecord({{1, -65.0}, {2, -70.0}}), kWeight);
  EXPECT_EQ(g.NumNodes(), nodes_before + 2);  // record + new MAC 2
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(BipartiteGraphTest, BadNodeIdsThrow) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -60.0}}), kWeight);
  EXPECT_THROW(g.TypeOf(99), Error);
  EXPECT_THROW(g.NeighborsOf(99), Error);
  EXPECT_THROW(g.WeightedDegree(99), Error);
  EXPECT_THROW(g.IsActive(99), Error);
}

TEST(BipartiteGraphTest, NonPositiveWeightRejected) {
  BipartiteGraph g;
  EXPECT_THROW(g.AddRecord(MakeRecord({{1, -130.0}}), OffsetWeight(120.0)),
               Error);
}

/// A delta over `g`, in SaveDelta's layout, that leaves the node table as
/// it is, replaces `owner`'s neighbor list with `ids` while declaring
/// `appended` of them, and rewrites the record table to `records`.
std::string CraftedDelta(const BipartiteGraph& g, NodeId owner,
                         std::uint32_t appended,
                         const std::vector<NodeId>& ids,
                         const std::vector<NodeId>& records) {
  std::ostringstream out;
  WriteU64(out, 0);  // removal epoch
  WriteU64(out, g.NumEdges());
  WriteU64(out, g.NumMacs());
  WriteDouble(out, 1.0);  // total edge weight
  WriteU64(out, g.NumNodes());  // node table: same size, nothing changed
  WriteU64(out, 0);
  WriteU64(out, g.NumNodes());  // adjacency: one changed list
  WriteU64(out, 1);
  WriteU32(out, owner);
  WriteU32(out, 0);  // shared prefix
  WriteU32(out, appended);
  for (const NodeId id : ids) {
    WriteU32(out, id);
    WriteDouble(out, 1.0);
  }
  WriteU64(out, records.size());  // record table: its one chunk rewritten
  WriteU32(out, 1);
  WriteU32(out, 0);
  WriteU32(out, static_cast<std::uint32_t>(records.size()));
  for (const NodeId id : records) WriteU32(out, id);
  WriteU8(out, 1);  // MAC index: shared base, no new entries
  WriteU64(out, 0);
  return out.str();
}

void ApplyCrafted(BipartiteGraph g, const std::string& delta) {
  std::istringstream in(delta);
  g.ApplyDelta(in);
}

TEST(BipartiteGraphTest, ApplyDeltaRejectsHostileBytes) {
  BipartiteGraph g;
  g.AddRecord(MakeRecord({{1, -60.0}, {2, -65.0}}), kWeight);
  g.AddRecord(MakeRecord({{2, -70.0}, {3, -70.0}}), kWeight);
  const NodeId r0 = g.RecordNode(0);
  const NodeId r1 = g.RecordNode(1);
  const NodeId mac = g.NeighborsOf(r0)[0].node;
  const std::vector<NodeId> records = {r0, r1};

  // Well-formed: the same layout with valid ids applies.
  ASSERT_NO_THROW(ApplyCrafted(g, CraftedDelta(g, r0, 1, {mac}, records)));

  // A neighbor count the stream cannot hold fails before any allocation.
  EXPECT_THROW(ApplyCrafted(g, CraftedDelta(g, r0, 0xFFFFFFFFu, {}, records)),
               Error);
  // Neighbor ids past the node table, or on the owner's own side.
  const auto past_end = static_cast<NodeId>(g.NumNodes() + 100);
  EXPECT_THROW(ApplyCrafted(g, CraftedDelta(g, r0, 1, {past_end}, records)),
               Error);
  EXPECT_THROW(ApplyCrafted(g, CraftedDelta(g, r0, 1, {r1}, records)),
               Error);
  EXPECT_THROW(ApplyCrafted(g, CraftedDelta(g, mac, 1, {mac}, records)),
               Error);
  // A record table entry past the node table, or naming a MAC.
  EXPECT_THROW(
      ApplyCrafted(g, CraftedDelta(g, r0, 1, {mac}, {r0, past_end})), Error);
  EXPECT_THROW(ApplyCrafted(g, CraftedDelta(g, r0, 1, {mac}, {r0, mac})),
               Error);
}

}  // namespace
}  // namespace grafics::graph
