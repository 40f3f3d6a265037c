// Vector-kernel layer tests: scalar-vs-SIMD parity across awkward sizes and
// alignments, NaN/inf propagation, backend selection (GRAFICS_SIMD /
// PinBackend), and the bit-identity anchors — seeded RefineNewNodes runs
// whose golden values were captured from the pre-SIMD kernels (scalar,
// dim 8) and from the dispatched kernels (AVX2, dims 16/32/64, the fold
// path and the serving overlay path).
//
// Suite order matters and is encoded in declaration order: SimdEnvTest runs
// first (it observes the process-wide dispatch before anything pins it),
// the parity suites use KernelsFor() tables directly (dispatch-independent),
// and SimdPinTest/SimdGoldenTest pin backends last.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
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

std::vector<simd::Backend> AvailableSimdBackends() {
  std::vector<simd::Backend> backends;
  for (const simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::KernelsFor(b) != nullptr) backends.push_back(b);
  }
  return backends;
}

std::vector<double> RandomVector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

// The ctest registration simd_test_env_scalar re-runs this suite with
// GRAFICS_SIMD=scalar in the environment; under that registration the very
// first dispatch resolution must honor the variable. Without the variable
// the test only asserts the auto-detected backend is actually runnable.
TEST(SimdEnvTest, EnvironmentSelectsBackend) {
  const char* env = std::getenv("GRAFICS_SIMD");
  const simd::Backend active = simd::ActiveBackend();
  if (env != nullptr && env[0] != '\0') {
    const simd::Backend requested = simd::ParseBackendName(env);
    if (simd::KernelsFor(requested) != nullptr) {
      EXPECT_EQ(active, requested);
    } else {
      EXPECT_EQ(active, simd::Backend::kScalar);
    }
  } else {
    EXPECT_NE(simd::KernelsFor(active), nullptr);
  }
}

TEST(SimdBackendTest, NamesRoundTrip) {
  EXPECT_STREQ(simd::BackendName(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kNeon), "neon");
  EXPECT_EQ(simd::ParseBackendName("scalar"), simd::Backend::kScalar);
  EXPECT_EQ(simd::ParseBackendName("avx2"), simd::Backend::kAvx2);
  EXPECT_EQ(simd::ParseBackendName("neon"), simd::Backend::kNeon);
  EXPECT_THROW(simd::ParseBackendName("sse9"), Error);
  EXPECT_THROW(simd::ParseBackendName(""), Error);
  EXPECT_THROW(simd::ParseBackendName("SCALAR"), Error);
}

TEST(SimdBackendTest, ScalarAlwaysAvailable) {
  ASSERT_NE(simd::KernelsFor(simd::Backend::kScalar), nullptr);
}

// Dims 1..67 cover every vector-width remainder (0..3 for AVX2's 4-wide,
// 0..1 for NEON's 2-wide) plus empty-tail and tail-only shapes.
TEST(SimdParityTest, DotAndDistanceWithinRelativeTolerance) {
  const simd::Kernels* scalar = simd::KernelsFor(simd::Backend::kScalar);
  Rng rng(42);
  for (const simd::Backend backend : AvailableSimdBackends()) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    for (std::size_t n = 1; n <= 67; ++n) {
      const std::vector<double> a = RandomVector(n, rng);
      const std::vector<double> b = RandomVector(n, rng);
      const double want_dot = scalar->dot(a.data(), b.data(), n);
      const double got_dot = kernels->dot(a.data(), b.data(), n);
      EXPECT_NEAR(got_dot, want_dot, 1e-12 * std::abs(want_dot) + 1e-15)
          << simd::BackendName(backend) << " dot n=" << n;
      const double want_d =
          scalar->squared_l2_distance(a.data(), b.data(), n);
      const double got_d = kernels->squared_l2_distance(a.data(), b.data(), n);
      EXPECT_NEAR(got_d, want_d, 1e-12 * want_d + 1e-15)
          << simd::BackendName(backend) << " sqdist n=" << n;
    }
  }
}

// Axpy has no reduction: every backend performs the same two roundings per
// element, so the guarantee is exact equality, not a tolerance.
TEST(SimdParityTest, AxpyBitIdenticalAcrossBackends) {
  Rng rng(43);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Backend::kScalar);
  for (const simd::Backend backend : AvailableSimdBackends()) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    for (std::size_t n = 1; n <= 67; ++n) {
      const std::vector<double> x = RandomVector(n, rng);
      std::vector<double> y_scalar = RandomVector(n, rng);
      std::vector<double> y_simd = y_scalar;
      const double alpha = rng.Uniform(-3.0, 3.0);
      scalar->axpy(alpha, x.data(), y_scalar.data(), n);
      kernels->axpy(alpha, x.data(), y_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y_simd[i], y_scalar[i])
            << simd::BackendName(backend) << " axpy n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdParityTest, ManyKernelsMatchPerRowScalar) {
  Rng rng(44);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Backend::kScalar);
  const std::size_t rows = 9;
  for (const simd::Backend backend : AvailableSimdBackends()) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    for (const std::size_t cols : {1ul, 2ul, 7ul, 16ul, 33ul}) {
      const std::vector<double> query = RandomVector(cols, rng);
      const std::vector<double> block = RandomVector(rows * cols, rng);
      std::vector<double> got(rows), want(rows);
      kernels->dot_many(query.data(), block.data(), rows, cols, got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        want[r] = scalar->dot(query.data(), block.data() + r * cols, cols);
        EXPECT_NEAR(got[r], want[r], 1e-12 * std::abs(want[r]) + 1e-15)
            << simd::BackendName(backend) << " dot_many cols=" << cols;
      }
      kernels->squared_l2_distance_many(query.data(), block.data(), rows,
                                        cols, got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        want[r] = scalar->squared_l2_distance(
            query.data(), block.data() + r * cols, cols);
        EXPECT_NEAR(got[r], want[r], 1e-12 * want[r] + 1e-15)
            << simd::BackendName(backend) << " sqdist_many cols=" << cols;
      }
    }
  }
}

// The kernels take raw pointers at arbitrary offsets (Matrix rows with odd
// cols, sub-spans): exercise deliberately unaligned starts — every SIMD
// load must be an unaligned load.
TEST(SimdParityTest, UnalignedRowOffsets) {
  Rng rng(45);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Backend::kScalar);
  const std::vector<double> pool = RandomVector(256, rng);
  for (const simd::Backend backend : AvailableSimdBackends()) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    for (const std::size_t offset : {1ul, 2ul, 3ul, 5ul, 7ul}) {
      const std::size_t n = 64;
      const double* a = pool.data() + offset;
      const double* b = pool.data() + 128 + offset;
      const double want = scalar->dot(a, b, n);
      EXPECT_NEAR(kernels->dot(a, b, n), want, 1e-12 * std::abs(want) + 1e-15)
          << simd::BackendName(backend) << " offset=" << offset;
    }
  }
}

// The inline fixed-dim kernels the refine loop uses must reproduce the
// dispatched kernel they stand in for to the last bit: FixedDot in scalar
// order against the scalar table, in AVX2 order against the AVX2 table, and
// FixedAxpy against every backend's axpy. Rows start at unaligned offsets.
template <std::size_t D>
void ExpectFixedKernelsMatch(Rng& rng) {
  const simd::Kernels* scalar = simd::KernelsFor(simd::Backend::kScalar);
  const simd::Kernels* avx2 = simd::KernelsFor(simd::Backend::kAvx2);
  std::vector<const simd::Kernels*> tables = {scalar};
  for (const simd::Backend backend : AvailableSimdBackends()) {
    tables.push_back(simd::KernelsFor(backend));
  }
  for (int trial = 0; trial < 16; ++trial) {
    const std::vector<double> pool = RandomVector(2 * D + 16, rng);
    for (const std::size_t offset : {0ul, 1ul, 3ul, 5ul}) {
      const double* a = pool.data() + offset;
      const double* b = pool.data() + D + 8 + offset;
      EXPECT_EQ((simd::FixedDot<D, simd::SumOrder::kScalar>(a, b)),
                scalar->dot(a, b, D))
          << "scalar order D=" << D << " offset=" << offset;
      if (avx2 != nullptr) {
        EXPECT_EQ((simd::FixedDot<D, simd::SumOrder::kAvx2Lanes>(a, b)),
                  avx2->dot(a, b, D))
            << "avx2 order D=" << D << " offset=" << offset;
      }
      const double alpha = rng.Uniform(-3.0, 3.0);
      for (const simd::Kernels* table : tables) {
        std::vector<double> y_fixed = RandomVector(D + offset, rng);
        std::vector<double> y_table = y_fixed;
        simd::FixedAxpy<D>(alpha, a, y_fixed.data() + offset);
        table->axpy(alpha, a, y_table.data() + offset, D);
        for (std::size_t i = 0; i < y_fixed.size(); ++i) {
          ASSERT_EQ(y_fixed[i], y_table[i])
              << "axpy D=" << D << " offset=" << offset << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, FixedKernelsMatchTheirBackendBitForBit) {
  Rng rng(46);
  ExpectFixedKernelsMatch<8>(rng);
  ExpectFixedKernelsMatch<16>(rng);
  ExpectFixedKernelsMatch<32>(rng);
  ExpectFixedKernelsMatch<64>(rng);
}

TEST(SimdParityTest, ZeroLengthIsSafe) {
  const std::vector<double> empty;
  double out = 1.0;
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    if (kernels == nullptr) continue;
    EXPECT_EQ(kernels->dot(empty.data(), empty.data(), 0), 0.0);
    EXPECT_EQ(kernels->squared_l2_distance(empty.data(), empty.data(), 0),
              0.0);
    kernels->axpy(2.0, empty.data(), nullptr, 0);
    kernels->dot_many(empty.data(), empty.data(), 0, 0, &out);
    EXPECT_EQ(out, 1.0);  // num_rows == 0 writes nothing
  }
}

TEST(SimdParityTest, NanAndInfPropagate) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    const simd::Kernels* kernels = simd::KernelsFor(backend);
    if (kernels == nullptr) continue;
    // NaN anywhere poisons the reduction, in or out of the vector body.
    for (const std::size_t n : {3ul, 11ul}) {
      std::vector<double> a(n, 1.0);
      std::vector<double> b(n, 2.0);
      a[n - 1] = kNan;
      EXPECT_TRUE(std::isnan(kernels->dot(a.data(), b.data(), n)))
          << simd::BackendName(backend) << " n=" << n;
      EXPECT_TRUE(
          std::isnan(kernels->squared_l2_distance(a.data(), b.data(), n)))
          << simd::BackendName(backend) << " n=" << n;
      a[n - 1] = kInf;
      EXPECT_EQ(kernels->dot(a.data(), b.data(), n), kInf);
      // (inf - 2)^2 = inf.
      EXPECT_EQ(kernels->squared_l2_distance(a.data(), b.data(), n), kInf);
      // inf - inf inside the distance is NaN.
      b[n - 1] = kInf;
      EXPECT_TRUE(
          std::isnan(kernels->squared_l2_distance(a.data(), b.data(), n)));
      std::vector<double> y(n, 0.0);
      kernels->axpy(1.0, a.data(), y.data(), n);
      EXPECT_EQ(y[n - 1], kInf);
      kernels->axpy(-1.0, a.data(), y.data(), n);  // inf + (-inf) = NaN
      EXPECT_TRUE(std::isnan(y[n - 1]));
    }
  }
}

TEST(SimdPinTest, PinBackendOverridesDispatch) {
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  for (const simd::Backend backend : AvailableSimdBackends()) {
    EXPECT_TRUE(simd::PinBackend(backend));
    EXPECT_EQ(simd::ActiveBackend(), backend);
  }
  // An unavailable backend leaves the pin untouched.
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::KernelsFor(backend) != nullptr) continue;
    const simd::Backend before = simd::ActiveBackend();
    EXPECT_FALSE(simd::PinBackend(backend));
    EXPECT_EQ(simd::ActiveBackend(), before);
  }
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
}

// --- scalar bit-identity anchor -------------------------------------------
// Golden values captured from the pre-SIMD build (commit 4af2caf) with the
// identical seeded pipeline: offline training on a two-community graph, one
// grown node, RefineNewNodes for 100 iterations. GRAFICS_SIMD=scalar (or
// PinBackend(kScalar), as here) must reproduce them to the last bit — this
// is the replay/replication guarantee, not a numeric-tolerance test.

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
/// grown node's (ego, context) rows. Runs under whatever backend is pinned.
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

TEST(SimdGoldenTest, ScalarBackendReproducesPreSimdRefineRun) {
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
  const GoldenRefine run = TwoCommunityRefine(8);

  const double kGoldenEgo[8] = {
      -0.034028237245881714, 0.013271457364177671, 0.033890079274176844,
      0.045236679827145493,  -0.027931263889281969, -0.032403083282112104,
      -0.0013361076425529351, -0.09004115025224993};
  const double kGoldenContext[8] = {
      0.037897748725178017,  0.036564981516817689, -0.018372312502568804,
      -0.02642353027513553,  0.0048045964950852145, 0.040115729542545178,
      -0.037778109816078681, 0.087218899627806504};
  const std::span<const double> ego = run.ego;
  const std::span<const double> context = run.context;
  ASSERT_EQ(ego.size(), 8u);
  ASSERT_EQ(context.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ego[i], kGoldenEgo[i]) << "ego[" << i << "]";
    EXPECT_EQ(context[i], kGoldenContext[i]) << "context[" << i << "]";
  }
}

// --- per-backend refine goldens -------------------------------------------
// Captured from the dispatched-kernel refine loop (before the fixed-dim
// kernels existed) with the pipeline above. The AVX2 values pin the
// backend's own reduction order — four lane sums collapsed as
// (l0+l1)+(l2+l3) — which differs from scalar in the last bits.

TEST(SimdGoldenTest, Avx2BackendReproducesDispatchedRefineRun) {
  if (!simd::PinBackend(simd::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 unavailable on this build/CPU";
  }
  const GoldenRefine run = TwoCommunityRefine(8);
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));

  // On this small graph the two reduction orders happen to round alike at
  // dims 8 and 16 (the wide-dim, fold and overlay goldens below are where
  // they part), so these equal the scalar anchor's values.
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
// sweeps, per backend. Dims 4 and 12 (an AVX2 tail) have no fixed-dim
// refine kernel, so they pin the dispatched fallback.
struct DimGolden {
  std::size_t dim;
  std::uint64_t scalar_hash;
  std::uint64_t avx2_hash;
};
constexpr DimGolden kDimGoldens[] = {
    {4, 0x0c53e6787aeeb05aULL, 0x0c53e6787aeeb05aULL},
    {12, 0x9cd142ce6f1c2bb5ULL, 0xc6a28105a050345fULL},
    {16, 0xd991cabe8eff9a68ULL, 0xd991cabe8eff9a68ULL},
    {32, 0x3e44724be11ebf91ULL, 0x2b2055941da5fb44ULL},
    {64, 0x89cf3003613e27a1ULL, 0xadcf62e6a7d5742bULL},
};

TEST(SimdGoldenTest, OtherDimsReproduceDispatchedRefineRun) {
  for (const DimGolden& golden : kDimGoldens) {
    ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
    GoldenRefine run = TwoCommunityRefine(golden.dim);
    ASSERT_EQ(run.ego.size(), golden.dim);
    EXPECT_EQ(Fnv1a(run.context, Fnv1a(run.ego)), golden.scalar_hash)
        << "scalar dim " << golden.dim;
    if (simd::PinBackend(simd::Backend::kAvx2)) {
      run = TwoCommunityRefine(golden.dim);
      EXPECT_EQ(Fnv1a(run.context, Fnv1a(run.ego)), golden.avx2_hash)
          << "avx2 dim " << golden.dim;
    }
  }
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
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

// Captured from the dispatched-kernel build like the goldens above. At
// dim 8 the scalar and AVX2 orders part on this fold, so it pins which
// order the fold path runs on each backend.
TEST(SimdGoldenTest, FoldPathReproducesDispatchedRows) {
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
  EXPECT_EQ(FoldedRowsHash(), 0x8e9852736231593dULL);
  if (simd::PinBackend(simd::Backend::kAvx2)) {
    EXPECT_EQ(FoldedRowsHash(), 0x7ef61b53cffcbbf5ULL);
  }
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
}

TEST(SimdGoldenTest, OverlayPathReproducesDispatchedQueryEmbeddings) {
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
  EXPECT_EQ(OverlayQueryHash(), 0x65f597530f81a7caULL);
  if (simd::PinBackend(simd::Backend::kAvx2)) {
    EXPECT_EQ(OverlayQueryHash(), 0xabfeb347b6f2cbe8ULL);
  }
  ASSERT_TRUE(simd::PinBackend(simd::Backend::kScalar));
}

}  // namespace
}  // namespace grafics
