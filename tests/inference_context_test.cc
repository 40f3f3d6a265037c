// Tests for the snapshot-isolated serving engine: InferenceContext and the
// parallel PredictBatch fan-out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/grafics.h"
#include "core/inference_context.h"
#include "synth/presets.h"

namespace {
/// Heap allocations made through operator new on this thread while
/// `t_count_news` is set (AllocationsPerPredict).
thread_local bool t_count_news = false;
thread_local std::size_t t_news = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_count_news) ++t_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace grafics::core {
namespace {

GraficsConfig FastConfig() {
  GraficsConfig config;
  config.trainer.samples_per_edge = 60;
  config.online_refine_iterations = 300;
  return config;
}

/// Small trained system plus held-out queries shared by the tests.
struct Fixture {
  Grafics system{FastConfig()};
  std::vector<rf::SignalRecord> queries;

  explicit Fixture(std::uint64_t seed = 53) {
    auto config = synth::CampusBuildingConfig(seed, 60);
    auto sim = config.MakeSimulator();
    rf::Dataset dataset = sim.GenerateDataset();
    Rng rng(seed + 1);
    auto [train, test] = dataset.TrainTestSplit(0.7, rng);
    train.KeepLabelsPerFloor(4, rng);
    system.Train(train.records());
    queries.assign(test.records().begin(), test.records().end());
  }
};

TEST(InferenceContextTest, RequiresTrainedModel) {
  Grafics system(FastConfig());
  EXPECT_THROW(system.MakeContext(), Error);
}

TEST(InferenceContextTest, PredictLeavesTrainedModelUntouched) {
  Fixture f;
  const std::size_t nodes_before = f.system.graph().NumNodes();
  const std::size_t records_before = f.system.graph().NumRecords();
  const std::size_t macs_before = f.system.graph().NumMacs();
  const std::size_t store_rows_before =
      f.system.embedding_store().num_nodes();
  const cluster::CentroidClassifier centroids_before = f.system.classifier();

  InferenceContext context(f.system);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 10 && i < f.queries.size(); ++i) {
    if (context.Predict(f.queries[i]).has_value()) ++accepted;
  }
  EXPECT_GT(accepted, 0u);

  EXPECT_EQ(f.system.graph().NumNodes(), nodes_before);
  EXPECT_EQ(f.system.graph().NumRecords(), records_before);
  EXPECT_EQ(f.system.graph().NumMacs(), macs_before);
  EXPECT_EQ(f.system.embedding_store().num_nodes(), store_rows_before);
  EXPECT_EQ(f.system.classifier(), centroids_before);
}

TEST(InferenceContextTest, PredictionsAreOrderIndependent) {
  Fixture f;
  ASSERT_GE(f.queries.size(), 3u);
  // Serve the same queries in two different orders through fresh contexts:
  // snapshot isolation means the results per query must match exactly.
  InferenceContext forward(f.system);
  InferenceContext backward(f.system);
  std::vector<std::optional<rf::FloorId>> a(3);
  std::vector<std::optional<rf::FloorId>> b(3);
  for (std::size_t i = 0; i < 3; ++i) a[i] = forward.Predict(f.queries[i]);
  for (std::size_t i = 3; i-- > 0;) b[i] = backward.Predict(f.queries[i]);
  EXPECT_EQ(a, b);
}

TEST(InferenceContextTest, ReusedContextMatchesFreshContexts) {
  Fixture f;
  InferenceContext reused(f.system);
  for (std::size_t i = 0; i < 5 && i < f.queries.size(); ++i) {
    InferenceContext fresh(f.system);
    EXPECT_EQ(reused.Predict(f.queries[i]), fresh.Predict(f.queries[i]));
  }
}

TEST(InferenceContextTest, DiscardsAlienAndEmptyRecords) {
  Fixture f;
  InferenceContext context(f.system);
  rf::SignalRecord alien;
  alien.Add(rf::MacAddress(0xABCDEF), -50.0);
  EXPECT_FALSE(context.Predict(alien).has_value());
  EXPECT_FALSE(context.Predict(rf::SignalRecord()).has_value());
  EXPECT_THROW(context.QueryEmbedding(), Error);
}

TEST(InferenceContextTest, QueryEmbeddingHasTrainedDimension) {
  Fixture f;
  InferenceContext context(f.system);
  ASSERT_TRUE(context.Predict(f.queries[0]).has_value());
  EXPECT_EQ(context.QueryEmbedding().size(), f.system.config().trainer.dim);
}

TEST(PredictBatchTest, ParallelIsBitIdenticalToSerial) {
  Fixture f;
  const auto serial = f.system.PredictBatch(f.queries, {.num_threads = 1});
  const auto parallel = f.system.PredictBatch(f.queries, {.num_threads = 4});
  EXPECT_EQ(serial, parallel);
}

TEST(PredictBatchTest, ConstBatchLeavesModelUntouched) {
  Fixture f;
  const std::size_t nodes_before = f.system.graph().NumNodes();
  const std::size_t store_rows_before =
      f.system.embedding_store().num_nodes();
  const Grafics& const_system = f.system;
  const auto predictions =
      const_system.PredictBatch(f.queries, {.num_threads = 2});
  EXPECT_EQ(predictions.size(), f.queries.size());
  EXPECT_EQ(f.system.graph().NumNodes(), nodes_before);
  EXPECT_EQ(f.system.embedding_store().num_nodes(), store_rows_before);
  // keep=true is a mutation and must be rejected on a const model.
  EXPECT_THROW(const_system.PredictBatch(f.queries, {.keep = true}), Error);
}

TEST(PredictBatchTest, KeepFoldsAcceptedRecordsBackIn) {
  Fixture f;
  const std::size_t records_before = f.system.graph().NumRecords();
  const std::size_t clusters_before = f.system.clustering().num_clusters();

  std::vector<rf::SignalRecord> batch(f.queries.begin(),
                                      f.queries.begin() + 4);
  rf::SignalRecord alien;  // rejected: must not be folded in
  alien.Add(rf::MacAddress(0xFEEDBEEF), -42.0);
  batch.push_back(alien);

  const auto predictions =
      f.system.PredictBatch(batch, {.num_threads = 2, .keep = true});
  std::size_t accepted = 0;
  for (const auto& p : predictions) {
    if (p.has_value()) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(f.system.graph().NumRecords(), records_before + accepted);
  // Update semantics: clusters and centroids stay untouched.
  EXPECT_EQ(f.system.clustering().num_clusters(), clusters_before);
}

TEST(InferenceContextTest, WarmedPredictDoesNotAllocate) {
  Fixture f;
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 40);
  InferenceContext context(f.system);
  // Warm up: the overlays, the refine loop's per-thread edge table and
  // every other scratch buffer grow to the largest query's size.
  std::vector<std::optional<rf::FloorId>> warm(n);
  for (std::size_t i = 0; i < n; ++i) warm[i] = context.Predict(f.queries[i]);
  for (std::size_t i = 0; i < n; ++i) {
    t_news = 0;
    t_count_news = true;
    const std::optional<rf::FloorId> floor = context.Predict(f.queries[i]);
    t_count_news = false;
    EXPECT_EQ(t_news, 0u) << "query " << i;
    EXPECT_EQ(floor, warm[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace grafics::core
