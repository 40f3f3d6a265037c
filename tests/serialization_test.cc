// Round-trip tests for the binary model-persistence path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>

#include "cluster/centroid_classifier.h"
#include "common/alias_sampler.h"
#include "common/cow_serialize.h"
#include "common/serialize.h"
#include "core/grafics.h"
#include "embed/embedding_store.h"
#include "graph/bipartite_graph.h"
#include "synth/presets.h"

namespace grafics {
namespace {

TEST(SerializeTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  WriteU8(stream, 200);
  WriteU32(stream, 123456789u);
  WriteU64(stream, 0xDEADBEEFCAFEULL);
  WriteI32(stream, -42);
  WriteDouble(stream, -3.14159);
  WriteString(stream, "hello, world");
  EXPECT_EQ(ReadU8(stream), 200);
  EXPECT_EQ(ReadU32(stream), 123456789u);
  EXPECT_EQ(ReadU64(stream), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(ReadI32(stream), -42);
  EXPECT_DOUBLE_EQ(ReadDouble(stream), -3.14159);
  EXPECT_EQ(ReadString(stream), "hello, world");
}

TEST(SerializeTest, MatrixRoundTrip) {
  Rng rng(1);
  const Matrix m = Matrix::RandomNormal(7, 5, rng, 2.0);
  std::stringstream stream;
  WriteMatrix(stream, m);
  EXPECT_EQ(ReadMatrix(stream), m);
}

TEST(SerializeTest, TruncatedStreamThrows) {
  std::stringstream stream;
  WriteU64(stream, 99);
  ReadU32(stream);
  EXPECT_THROW(ReadU64(stream), Error);
}

TEST(SerializeTest, RequireAvailableBoundsCountsByTheRestOfTheStream) {
  std::stringstream stream;
  WriteU64(stream, 1);
  WriteU64(stream, 2);
  ReadU64(stream);  // 8 bytes left
  EXPECT_NO_THROW(RequireAvailable(stream, 8, 1, "bytes"));
  EXPECT_NO_THROW(RequireAvailable(stream, 1, 8, "u64s"));
  EXPECT_THROW(RequireAvailable(stream, 9, 1, "bytes"), Error);
  EXPECT_THROW(RequireAvailable(stream, 2, 8, "u64s"), Error);
  EXPECT_THROW(RequireAvailable(stream, 1ULL << 62, 16, "pairs"), Error);
  EXPECT_EQ(ReadU64(stream), 2u);  // the probe left the read position alone
}

TEST(SerializeTest, HostileMatrixShapeThrowsBeforeAllocating) {
  // Headers whose element count dwarfs the stream must be an Error, not a
  // std::length_error or std::bad_alloc escaping from the allocation.
  for (const std::uint64_t side : {1ULL << 31, 1ULL << 26}) {
    std::stringstream stream;
    WriteU64(stream, side);
    WriteU64(stream, side);
    EXPECT_THROW(ReadMatrix(stream), Error) << side;
  }
}

TEST(SerializeTest, HostileAliasSamplerCountThrowsBeforeAllocating) {
  for (const std::uint64_t n : {1ULL << 62, 1ULL << 45}) {
    std::stringstream stream;
    WriteU64(stream, n);
    WriteDouble(stream, 1.0);
    EXPECT_THROW(AliasSampler::Load(stream), Error) << n;
  }
}

TEST(SerializeTest, HostileCowDeltaSizeThrowsBeforeAllocating) {
  // A delta's declared size grows the chunk table before any chunk record
  // is read; a size the stream cannot populate must be an Error.
  for (const std::uint64_t size : {1ULL << 63, 1ULL << 50}) {
    std::stringstream vector_stream;
    WriteU64(vector_stream, size);
    WriteU32(vector_stream, 0);
    CowVector<int> vector;
    EXPECT_THROW(ApplyCowVectorDelta(vector_stream, vector,
                                     [](std::istream& in) {
                                       return ReadI32(in);
                                     }),
                 Error)
        << size;

    std::stringstream matrix_stream;
    WriteU64(matrix_stream, size);
    WriteU32(matrix_stream, 0);
    CowMatrix matrix(4);
    EXPECT_THROW(ApplyCowMatrixDelta(matrix_stream, matrix), Error) << size;
  }
}

TEST(SerializeTest, HeaderMismatchThrows) {
  std::stringstream stream;
  WriteHeader(stream, "ABCD", 1);
  EXPECT_THROW(CheckHeader(stream, "ABCE", 1), Error);
  std::stringstream stream2;
  WriteHeader(stream2, "ABCD", 2);
  EXPECT_THROW(CheckHeader(stream2, "ABCD", 1), Error);
}

TEST(SerializeTest, GraphRoundTrip) {
  rf::SignalRecord r1;
  r1.Add(rf::MacAddress(1), -66.0);
  r1.Add(rf::MacAddress(2), -60.0);
  rf::SignalRecord r2;
  r2.Add(rf::MacAddress(2), -70.0);
  r2.Add(rf::MacAddress(3), -70.0);
  auto g = graph::BipartiteGraph::FromRecords({r1, r2},
                                              graph::OffsetWeight(120.0));
  std::stringstream stream;
  g.Save(stream);
  const auto loaded = graph::BipartiteGraph::Load(stream);
  EXPECT_EQ(loaded.NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.NumMacs(), g.NumMacs());
  EXPECT_DOUBLE_EQ(loaded.TotalEdgeWeight(), g.TotalEdgeWeight());
  EXPECT_EQ(loaded.RecordNode(1), g.RecordNode(1));
  EXPECT_EQ(*loaded.FindMacNode(rf::MacAddress(2)),
            *g.FindMacNode(rf::MacAddress(2)));
}

TEST(SerializeTest, GraphWithRemovedMacRoundTrips) {
  rf::SignalRecord r1;
  r1.Add(rf::MacAddress(1), -66.0);
  r1.Add(rf::MacAddress(2), -60.0);
  auto g = graph::BipartiteGraph::FromRecords({r1},
                                              graph::OffsetWeight(120.0));
  ASSERT_TRUE(g.RemoveMacNode(rf::MacAddress(2)));
  std::stringstream stream;
  g.Save(stream);
  const auto loaded = graph::BipartiteGraph::Load(stream);
  EXPECT_EQ(loaded.NumMacs(), 1u);
  EXPECT_FALSE(loaded.FindMacNode(rf::MacAddress(2)).has_value());
  EXPECT_EQ(loaded.NumEdges(), 1u);
  // Retired ids preserved so the embedding store stays aligned.
  EXPECT_EQ(loaded.NumNodes(), g.NumNodes());
}

/// A hand-written version-2 graph artifact: record node 0 linked to MAC
/// nodes 1 and 2. Each field can be overridden to plant one defect.
struct GraphBytes {
  std::uint64_t num_nodes = 3;
  std::uint8_t node0_type = 0;  // NodeType::kRecord
  std::uint64_t num_records = 1;
  std::uint32_t record_id = 0;
  std::uint64_t num_macs = 2;
  std::uint32_t mac1_node = 1;
  std::uint64_t degree = 2;

  std::string Build() const {
    std::stringstream out;
    WriteHeader(out, "GBPG", 2);
    WriteU64(out, num_nodes);
    for (const std::uint8_t type :
         {node0_type, std::uint8_t{1}, std::uint8_t{1}}) {
      WriteU8(out, type);
      WriteU8(out, 1);  // active
    }
    WriteU64(out, num_records);
    WriteU32(out, record_id);
    WriteU64(out, num_macs);
    WriteU64(out, 0xA1);
    WriteU32(out, mac1_node);
    WriteU64(out, 0xA2);
    WriteU32(out, 2);
    WriteU64(out, degree);
    for (const std::uint32_t mac : {1u, 2u}) {
      WriteU32(out, mac);
      WriteDouble(out, 0.5);
    }
    WriteU64(out, 0);    // removal epoch
    WriteU64(out, 2);    // edges
    WriteU64(out, 2);    // active MACs
    WriteDouble(out, 1.0);
    for (const double degree_weight : {1.0, 0.5, 0.5}) {
      WriteDouble(out, degree_weight);
    }
    return out.str();
  }
};

/// Loads `bytes`, expecting an Error whose message contains `what`.
void ExpectGraphLoadError(const std::string& bytes, const std::string& what) {
  std::stringstream in(bytes);
  try {
    graph::BipartiteGraph::Load(in);
    ADD_FAILURE() << "expected an Error containing '" << what << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(SerializeTest, HandWrittenGraphLoads) {
  std::stringstream in(GraphBytes{}.Build());
  const graph::BipartiteGraph g = graph::BipartiteGraph::Load(in);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumRecords(), 1u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(*g.FindMacNode(rf::MacAddress(0xA1)), 1u);
}

TEST(SerializeTest, HostileGraphCountsThrowBeforeTheirLoops) {
  // Each count is checked against the bytes left before its loop, so the
  // error names the bound, not the end of the stream.
  constexpr std::uint64_t kHuge = 1ULL << 40;
  const std::string bound = "larger than the rest of the stream";
  GraphBytes nodes;
  nodes.num_nodes = kHuge;
  ExpectGraphLoadError(nodes.Build(), bound);
  GraphBytes records;
  records.num_records = kHuge;
  ExpectGraphLoadError(records.Build(), bound);
  GraphBytes macs;
  macs.num_macs = kHuge;
  ExpectGraphLoadError(macs.Build(), bound);
  GraphBytes degree;
  degree.degree = kHuge;
  ExpectGraphLoadError(degree.Build(), bound);
}

TEST(SerializeTest, GraphIdsOfTheWrongTypeThrow) {
  // A MAC node in the record table would load as MAC-MAC edges.
  GraphBytes mac_as_record;
  mac_as_record.record_id = 1;
  ExpectGraphLoadError(mac_as_record.Build(), "bad record id");
  // A record node in the MAC map would make a query's MAC a record.
  GraphBytes record_as_mac;
  record_as_mac.mac1_node = 0;
  ExpectGraphLoadError(record_as_mac.Build(), "bad MAC node id");
  // A node type outside the enum.
  GraphBytes bad_type;
  bad_type.node0_type = 7;
  ExpectGraphLoadError(bad_type.Build(), "bad node type");
}

TEST(SerializeTest, EmbeddingStoreRoundTrip) {
  Rng rng(2);
  embed::EmbeddingStore store(6, 4, rng);
  store.Ego(3)[1] = 0.33;
  store.Context(5)[0] = -0.2;
  std::stringstream stream;
  store.Save(stream);
  EXPECT_EQ(embed::EmbeddingStore::Load(stream), store);
}

TEST(SerializeTest, CentroidClassifierRoundTrip) {
  Matrix centroids(2, 3);
  centroids(0, 0) = 1.0;
  centroids(1, 2) = -2.0;
  const cluster::CentroidClassifier classifier(centroids, {4, -1});
  std::stringstream stream;
  classifier.Save(stream);
  EXPECT_EQ(cluster::CentroidClassifier::Load(stream), classifier);
}

TEST(SerializeTest, GraficsModelRoundTripPredictsIdentically) {
  auto config = synth::CampusBuildingConfig(99, 60);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(7);
  dataset.KeepLabelsPerFloor(4, rng);

  core::GraficsConfig grafics_config;
  grafics_config.trainer.samples_per_edge = 60;
  core::Grafics original(grafics_config);
  original.Train(dataset.records());

  const std::string path =
      (std::filesystem::temp_directory_path() / "grafics_model_test.bin")
          .string();
  original.SaveModel(path);
  core::Grafics restored = core::Grafics::LoadModel(path);
  std::filesystem::remove(path);

  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.graph().NumNodes(), original.graph().NumNodes());
  EXPECT_EQ(restored.clustering().num_clusters(),
            original.clustering().num_clusters());

  // Both systems predict identical floors for fresh probes.
  for (int i = 0; i < 10; ++i) {
    const int floor = i % 3;
    const rf::SignalRecord probe =
        sim.MeasureAt({15.0 + i, 20.0, floor * 4.0 + 1.2}, floor);
    EXPECT_EQ(original.Predict(probe), restored.Predict(probe)) << i;
  }
}

TEST(SerializeTest, HostileClusterCountInSavedModelThrows) {
  rf::SignalRecord r1;
  r1.Add(rf::MacAddress(1), -50.0);
  r1.set_floor(0);
  rf::SignalRecord r2;
  r2.Add(rf::MacAddress(1), -60.0);
  r2.Add(rf::MacAddress(2), -70.0);
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 20;
  core::Grafics system(config);
  system.Train({r1, r2});
  std::stringstream saved;
  system.SaveModel(saved);
  std::string bytes = saved.str();

  // The cluster count follows the per-point cluster ids; find it by the
  // bytes SaveModel wrote for them.
  const cluster::ClusteringResult& clustering = system.clustering();
  std::ostringstream prefix;
  WriteU64(prefix, clustering.cluster_of_point.size());
  for (const std::size_t c : clustering.cluster_of_point) WriteU64(prefix, c);
  WriteU64(prefix, clustering.cluster_label.size());
  const std::string needle = std::move(prefix).str();
  const std::size_t at = bytes.rfind(needle);
  ASSERT_NE(at, std::string::npos);
  {
    std::istringstream intact(bytes);
    ASSERT_NO_THROW(core::Grafics::LoadModel(intact));
  }
  const std::uint64_t hostile = 1ULL << 62;
  std::memcpy(bytes.data() + at + needle.size() - sizeof(hostile), &hostile,
              sizeof(hostile));
  std::istringstream corrupt(bytes);
  EXPECT_THROW(core::Grafics::LoadModel(corrupt), Error);
}

TEST(SerializeTest, SaveUntrainedThrows) {
  core::Grafics system;
  EXPECT_THROW(system.SaveModel("/tmp/should_not_exist.bin"), Error);
}

TEST(SerializeTest, SaveCustomWeightThrows) {
  core::GraficsConfig config;
  config.custom_weight = graph::BinaryWeight();
  config.trainer.samples_per_edge = 20;
  core::Grafics system(config);
  rf::SignalRecord r1;
  r1.Add(rf::MacAddress(1), -50.0);
  r1.set_floor(0);
  rf::SignalRecord r2;
  r2.Add(rf::MacAddress(1), -60.0);
  system.Train({r1, r2});
  EXPECT_THROW(system.SaveModel("/tmp/should_not_exist.bin"), Error);
}

TEST(SerializeTest, LoadMissingFileThrows) {
  EXPECT_THROW(core::Grafics::LoadModel("/nonexistent/model.bin"), Error);
}

}  // namespace
}  // namespace grafics
