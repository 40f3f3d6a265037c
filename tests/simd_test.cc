// Vector-kernel layer tests: the kernels against a naive single-sum loop
// across awkward sizes and alignments, NaN/inf propagation, the one lane
// order, and the bit-identity anchors — seeded RefineNewNodes runs (dims 4
// to 64, the fold path and the serving overlay path) whose golden values
// every host must reproduce to the last bit.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/grafics.h"
#include "core/inference_context.h"
#include "embed/embedding_store.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "graph/weight_function.h"
#include "rf/signal_record.h"
#include "synth/presets.h"

namespace grafics {
namespace {

std::vector<double> RandomVector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

// The reference: one running sum, element by element. The kernels reduce
// in four lanes, so they agree with it to rounding, not bit for bit.
double NaiveDot(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double NaiveSquaredL2Distance(const double* a, const double* b,
                              std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Sizes 0..67 cover every remainder of the four lanes plus empty-tail and
// tail-only shapes; the offsets start rows off any vector alignment.
TEST(SimdKernelTest, DotAndDistanceMatchNaiveLoop) {
  Rng rng(42);
  const std::vector<double> pool = RandomVector(2 * 67 + 16, rng);
  for (const std::size_t offset : {0ul, 1ul, 2ul, 3ul, 5ul, 7ul}) {
    for (std::size_t n = 0; n <= 67; ++n) {
      const double* a = pool.data() + offset;
      const double* b = pool.data() + 67 + 8 + offset;
      const double want_dot = NaiveDot(a, b, n);
      EXPECT_NEAR(simd::Dot(a, b, n), want_dot,
                  1e-12 * std::abs(want_dot) + 1e-15)
          << "dot n=" << n << " offset=" << offset;
      const double want_d = NaiveSquaredL2Distance(a, b, n);
      EXPECT_NEAR(simd::SquaredL2Distance(a, b, n), want_d,
                  1e-12 * want_d + 1e-15)
          << "sqdist n=" << n << " offset=" << offset;
    }
  }
}

// Axpy has no reduction: the same two roundings per element as the naive
// loop, so the guarantee is exact equality, not a tolerance.
TEST(SimdKernelTest, AxpyMatchesNaiveLoopBitForBit) {
  Rng rng(43);
  for (std::size_t n = 0; n <= 67; ++n) {
    const std::vector<double> x = RandomVector(n + 3, rng);
    std::vector<double> y = RandomVector(n + 3, rng);
    std::vector<double> want = y;
    const double alpha = rng.Uniform(-3.0, 3.0);
    simd::Axpy(alpha, x.data() + 3, y.data() + 3, n);
    for (std::size_t i = 3; i < n + 3; ++i) want[i] += alpha * x[i];
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(y[i], want[i]) << "axpy n=" << n << " i=" << i;
    }
  }
}

// The one order, written out: lane j sums elements j, j+4, ...; the lanes
// collapse as (l0+l1)+(l2+l3); the tail follows in order.
TEST(SimdKernelTest, ReductionFollowsTheLaneOrder) {
  Rng rng(47);
  for (int trial = 0; trial < 64; ++trial) {
    const std::vector<double> a = RandomVector(10, rng);
    const std::vector<double> b = RandomVector(10, rng);
    double p[10];
    double d2[10];
    for (std::size_t i = 0; i < 10; ++i) {
      p[i] = a[i] * b[i];
      d2[i] = (a[i] - b[i]) * (a[i] - b[i]);
    }
    const double dot8 =
        ((p[0] + p[4]) + (p[1] + p[5])) + ((p[2] + p[6]) + (p[3] + p[7]));
    EXPECT_EQ(simd::Dot(a.data(), b.data(), 8), dot8);
    EXPECT_EQ(simd::Dot(a.data(), b.data(), 10), (dot8 + p[8]) + p[9]);
    EXPECT_EQ(simd::Dot(a.data(), b.data(), 3), ((0.0 + p[0]) + p[1]) + p[2]);
    const double dist8 = ((d2[0] + d2[4]) + (d2[1] + d2[5])) +
                         ((d2[2] + d2[6]) + (d2[3] + d2[7]));
    EXPECT_EQ(simd::SquaredL2Distance(a.data(), b.data(), 10),
              (dist8 + d2[8]) + d2[9]);
  }
}

TEST(SimdKernelTest, ManyKernelsMatchPerRowKernels) {
  Rng rng(44);
  const std::size_t rows = 9;
  for (const std::size_t cols : {1ul, 2ul, 7ul, 8ul, 16ul, 33ul}) {
    const std::vector<double> query = RandomVector(cols, rng);
    const std::vector<double> block = RandomVector(rows * cols, rng);
    std::vector<double> got(rows);
    simd::DotMany(query.data(), block.data(), rows, cols, got.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(got[r],
                simd::Dot(query.data(), block.data() + r * cols, cols))
          << "dot_many cols=" << cols;
    }
    simd::SquaredL2DistanceMany(query.data(), block.data(), rows, cols,
                                got.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(got[r], simd::SquaredL2Distance(
                            query.data(), block.data() + r * cols, cols))
          << "sqdist_many cols=" << cols;
    }
  }
}

TEST(SimdKernelTest, ZeroLengthIsSafe) {
  const std::vector<double> empty;
  double out = 1.0;
  EXPECT_EQ(simd::Dot(empty.data(), empty.data(), 0), 0.0);
  EXPECT_EQ(simd::SquaredL2Distance(empty.data(), empty.data(), 0), 0.0);
  simd::Axpy(2.0, empty.data(), nullptr, 0);
  simd::DotMany(empty.data(), empty.data(), 0, 0, &out);
  simd::SquaredL2DistanceMany(empty.data(), empty.data(), 0, 0, &out);
  EXPECT_EQ(out, 1.0);  // num_rows == 0 writes nothing
}

TEST(SimdKernelTest, NanAndInfPropagate) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // NaN anywhere poisons the reduction: in a lane (index 1) or in the tail
  // (index n - 1).
  for (const std::size_t n : {3ul, 11ul}) {
    for (const std::size_t at : {std::size_t{1}, n - 1}) {
      std::vector<double> a(n, 1.0);
      std::vector<double> b(n, 2.0);
      a[at] = kNan;
      EXPECT_TRUE(std::isnan(simd::Dot(a.data(), b.data(), n)))
          << "n=" << n << " at=" << at;
      EXPECT_TRUE(std::isnan(simd::SquaredL2Distance(a.data(), b.data(), n)))
          << "n=" << n << " at=" << at;
      a[at] = kInf;
      EXPECT_EQ(simd::Dot(a.data(), b.data(), n), kInf);
      // (inf - 2)^2 = inf.
      EXPECT_EQ(simd::SquaredL2Distance(a.data(), b.data(), n), kInf);
      // inf - inf inside the distance is NaN.
      b[at] = kInf;
      EXPECT_TRUE(std::isnan(simd::SquaredL2Distance(a.data(), b.data(), n)));
      std::vector<double> y(n, 0.0);
      simd::Axpy(1.0, a.data(), y.data(), n);
      EXPECT_EQ(y[at], kInf);
      simd::Axpy(-1.0, a.data(), y.data(), n);  // inf + (-inf) = NaN
      EXPECT_TRUE(std::isnan(y[at]));
    }
  }
}

// --- bit-identity anchors --------------------------------------------------
// Golden values of seeded pipelines, compared to the last bit: this is the
// replay/replication guarantee, not a numeric-tolerance test. They were
// captured from the lane order's first implementation and hold on every
// host and in every build (CI reruns them built with -march=x86-64-v3).

rf::SignalRecord MakeRecord(
    std::initializer_list<std::pair<int, double>> observations) {
  rf::SignalRecord record;
  for (const auto& [mac, rssi] : observations) {
    record.Add(rf::MacAddress(static_cast<std::uint64_t>(mac)), rssi);
  }
  return record;
}

/// The golden pipeline: offline training on a two-community graph at
/// `dim`, one grown node, RefineNewNodes for 100 iterations. Returns the
/// grown node's (ego, context) rows.
struct GoldenRefine {
  std::vector<double> ego;
  std::vector<double> context;
};

GoldenRefine TwoCommunityRefine(std::size_t dim) {
  std::vector<rf::SignalRecord> records;
  for (int base : {100, 200}) {
    for (int r = 0; r < 4; ++r) {
      rf::SignalRecord rec;
      for (int m = 0; m < 4; ++m) {
        rec.Add(rf::MacAddress(static_cast<std::uint64_t>(base + m)), -55.0);
      }
      records.push_back(std::move(rec));
    }
  }
  auto graph = graph::BipartiteGraph::FromRecords(records,
                                                  graph::OffsetWeight(120.0));
  embed::TrainerConfig config;
  config.dim = dim;
  config.samples_per_edge = 50;
  config.dropout = 0.0;
  config.seed = 1234;
  embed::EmbeddingStore store = embed::TrainEmbeddings(graph, config);
  const std::size_t nodes_before = graph.NumNodes();
  const graph::NodeId new_node = graph.AddRecord(
      MakeRecord({{100, -50.0}, {101, -55.0}, {102, -60.0}}),
      graph::OffsetWeight(120.0));
  Rng rng(5);
  store.Grow(graph.NumNodes() - nodes_before, rng);
  const std::vector<graph::NodeId> new_nodes = {new_node};
  embed::RefineNewNodes(graph, new_nodes, store, config, 100);
  const std::span<const double> ego = store.Ego(new_node);
  const std::span<const double> context = store.Context(new_node);
  return {{ego.begin(), ego.end()}, {context.begin(), context.end()}};
}

/// FNV-1a over the bit patterns of `values`, byte order fixed (low byte
/// first) so the pinned hashes do not depend on host endianness.
std::uint64_t Fnv1a(std::span<const double> values,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(SimdGoldenTest, Dim8RefineRun) {
  const GoldenRefine run = TwoCommunityRefine(8);

  const double kGoldenEgo[8] = {
      -0.034028237245881714, 0.013271457364177671, 0.033890079274176844,
      0.045236679827145493,  -0.027931263889281969, -0.032403083282112104,
      -0.0013361076425529351, -0.09004115025224993};
  const double kGoldenContext[8] = {
      0.037897748725178017,  0.036564981516817689, -0.018372312502568804,
      -0.02642353027513553,  0.0048045964950852145, 0.040115729542545178,
      -0.037778109816078681, 0.087218899627806504};
  ASSERT_EQ(run.ego.size(), 8u);
  ASSERT_EQ(run.context.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(run.ego[i], kGoldenEgo[i]) << "ego[" << i << "]";
    EXPECT_EQ(run.context[i], kGoldenContext[i]) << "context[" << i << "]";
  }
}

// FNV-1a of the refined (ego, context) rows at the other dims Fig. 15
// sweeps. These dims run the runtime-length kernels; 4 and 12 exercise the
// tail.
struct DimGolden {
  std::size_t dim;
  std::uint64_t hash;
};
constexpr DimGolden kDimGoldens[] = {
    {4, 0x0c53e6787aeeb05aULL},  {12, 0xc6a28105a050345fULL},
    {16, 0xd991cabe8eff9a68ULL}, {32, 0x2b2055941da5fb44ULL},
    {64, 0xadcf62e6a7d5742bULL},
};

TEST(SimdGoldenTest, OtherDimsRefineRun) {
  for (const DimGolden& golden : kDimGoldens) {
    const GoldenRefine run = TwoCommunityRefine(golden.dim);
    ASSERT_EQ(run.ego.size(), golden.dim);
    EXPECT_EQ(Fnv1a(run.context, Fnv1a(run.ego)), golden.hash)
        << "dim " << golden.dim;
  }
}

/// The campus model the serving-path goldens share: trains `system` and
/// returns the held-out scans.
std::vector<rf::SignalRecord> TrainCampus(core::Grafics& system) {
  auto building = synth::CampusBuildingConfig(/*seed=*/71, 100);
  rf::Dataset dataset = building.MakeSimulator().GenerateDataset();
  Rng split_rng(72);
  auto [train, test] = dataset.TrainTestSplit(0.7, split_rng);
  train.KeepLabelsPerFloor(4, split_rng);
  system.Train(train.records());
  return test.records();
}

core::GraficsConfig CampusConfig() {
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 40;
  config.online_refine_iterations = 200;
  return config;
}

/// The serving path: a campus model, one Update (the store fold path),
/// then 50 held-out scans through one InferenceContext (the overlay path).
/// Hashes every accepted query embedding, in scan order.
std::uint64_t OverlayQueryHash() {
  core::Grafics system(CampusConfig());
  const std::vector<rf::SignalRecord> held_out = TrainCampus(system);
  std::vector<rf::SignalRecord> fold(held_out.begin(), held_out.begin() + 8);
  system.Update(fold);
  core::InferenceContext context = system.MakeContext();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t accepted = 0;
  for (std::size_t i = 8; i < 58 && i < held_out.size(); ++i) {
    if (!context.Predict(held_out[i]).has_value()) continue;
    hash = Fnv1a(context.QueryEmbedding(), hash);
    ++accepted;
  }
  EXPECT_GT(accepted, 40u);
  return hash;
}

/// The fold path alone: the same model and Update, hashing the (ego,
/// context) rows of every node the Update added, in node order.
std::uint64_t FoldedRowsHash() {
  core::Grafics system(CampusConfig());
  const std::vector<rf::SignalRecord> held_out = TrainCampus(system);
  const std::size_t nodes_before = system.graph().NumNodes();
  system.Update({held_out.begin(), held_out.begin() + 8});
  const embed::EmbeddingStore& store = system.embedding_store();
  EXPECT_GT(store.num_nodes(), nodes_before);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (graph::NodeId n = nodes_before; n < store.num_nodes(); ++n) {
    hash = Fnv1a(store.Context(n), Fnv1a(store.Ego(n), hash));
  }
  return hash;
}

TEST(SimdGoldenTest, FoldPathRows) {
  EXPECT_EQ(FoldedRowsHash(), 0x7ef61b53cffcbbf5ULL);
}

TEST(SimdGoldenTest, OverlayPathQueryEmbeddings) {
  EXPECT_EQ(OverlayQueryHash(), 0xabfeb347b6f2cbe8ULL);
}

}  // namespace
}  // namespace grafics
