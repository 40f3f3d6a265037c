#include "embed/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

#include "common/error.h"
#include "common/matrix.h"
#include "common/simd.h"

namespace grafics::embed {

namespace {

/// One negative-sampling SGD step for a (source, target) pair against a
/// target table (ego or context), addressed through `target_row` so the
/// chunked EmbeddingStore needs no dense-matrix view. Updates the
/// target-table rows in place, accumulates the source gradient into
/// `grad_src`.
template <typename MutableRowFn>
void SampledStep(std::span<const double> src, std::span<double> grad_src,
                 MutableRowFn&& target_row, graph::NodeId target,
                 const AliasSampler& negative_sampler,
                 std::span<const graph::NodeId> node_of_index,
                 std::size_t negatives, double lr, bool update_targets,
                 Rng& rng) {
  // Offline training's inner step: straight to the runtime-length kernels
  // — every row here is `dim` long by EmbeddingStore construction, so the
  // span-level dimension re-checks in the matrix.cc wrappers would be pure
  // overhead. (The per-query refine loop below uses kernel policies.)
  const std::size_t dim = src.size();
  // Positive sample: label 1.
  {
    const std::span<double> tgt = target_row(target);
    const double g =
        (1.0 - Sigmoid(simd::Dot(tgt.data(), src.data(), dim))) * lr;
    simd::Axpy(g, tgt.data(), grad_src.data(), dim);
    if (update_targets) simd::Axpy(g, src.data(), tgt.data(), dim);
  }
  // K negative samples: label 0.
  for (std::size_t k = 0; k < negatives; ++k) {
    const graph::NodeId z = node_of_index[negative_sampler.Sample(rng)];
    if (z == target) continue;
    const std::span<double> neg = target_row(z);
    const double g = -Sigmoid(simd::Dot(neg.data(), src.data(), dim)) * lr;
    simd::Axpy(g, neg.data(), grad_src.data(), dim);
    if (update_targets) simd::Axpy(g, src.data(), neg.data(), dim);
  }
}

/// Applies `grad` to `dst` with per-coordinate dropout.
void ApplyGradient(std::span<double> dst, std::span<double> grad,
                   double dropout, Rng& rng) {
  if (dropout <= 0.0) {
    // Fast path: `1.0 * g == g` exactly, so one axpy is bit-identical to
    // the per-coordinate loop below, and the short-circuit above means the
    // RNG stream is untouched either way.
    simd::Axpy(1.0, grad.data(), dst.data(), dst.size());
  } else {
    for (std::size_t c = 0; c < dst.size(); ++c) {
      if (rng.NextDouble() < dropout) continue;
      dst[c] += grad[c];
    }
  }
  std::fill(grad.begin(), grad.end(), 0.0);
}

struct EdgeTables {
  std::vector<graph::Edge> edges;
  AliasSampler edge_sampler;
  AliasSampler negative_sampler;
  std::vector<graph::NodeId> node_of_index;
};

EdgeTables BuildTables(const graph::BipartiteGraph& graph) {
  EdgeTables t;
  t.edges = graph.Edges();
  Require(!t.edges.empty(), "TrainEmbeddings: graph has no edges");
  std::vector<double> weights;
  weights.reserve(t.edges.size());
  for (const graph::Edge& e : t.edges) weights.push_back(e.weight);
  t.edge_sampler = AliasSampler(weights);
  t.negative_sampler = BuildNegativeSampler(graph, &t.node_of_index);
  return t;
}

/// The per-sample update dispatch shared by offline training and tests.
/// (i, j) is a directed edge draw; mutates `store` rows for i, j and
/// sampled negatives.
void TrainStep(const EdgeTables& tables, const TrainerConfig& config,
               EmbeddingStore& store, graph::NodeId i, graph::NodeId j,
               double lr, std::span<double> grad, Rng& rng) {
  const auto ego = [&store](graph::NodeId n) { return store.Ego(n); };
  const auto context = [&store](graph::NodeId n) { return store.Context(n); };
  switch (config.objective) {
    case Objective::kLineFirstOrder:
      SampledStep(store.Ego(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kLineSecondOrder:
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kLineBothOrders:
      SampledStep(store.Ego(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kELine:
      // Second-order term: context of j given ego of i (Eq. 5).
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      // Mirrored term: ego of j given context of i (Eq. 8). This is what
      // propagates similarity beyond one-hop neighborhoods.
      SampledStep(store.Context(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Context(i), grad, config.dropout, rng);
      break;
  }
}

}  // namespace

AliasSampler BuildNegativeSampler(const graph::BipartiteGraph& graph,
                                  std::vector<graph::NodeId>* node_of_index) {
  Require(node_of_index != nullptr,
          "BuildNegativeSampler: node_of_index must not be null");
  node_of_index->clear();
  std::vector<double> weights;
  for (graph::NodeId node = 0; node < graph.NumNodes(); ++node) {
    if (!graph.IsActive(node) || graph.Degree(node) == 0) continue;
    node_of_index->push_back(node);
    weights.push_back(
        std::pow(static_cast<double>(graph.Degree(node)), 0.75));
  }
  Require(!weights.empty(), "BuildNegativeSampler: no active nodes");
  return AliasSampler(weights);
}

EmbeddingStore TrainEmbeddings(const graph::BipartiteGraph& graph,
                               const TrainerConfig& config) {
  Require(config.dim > 0, "TrainEmbeddings: dim must be positive");
  Require(config.num_threads >= 1, "TrainEmbeddings: need >= 1 thread");

  EdgeTables tables = BuildTables(graph);
  Rng init_rng(config.seed);
  EmbeddingStore store(graph.NumNodes(), config.dim, init_rng);

  const std::size_t total_samples =
      config.samples_per_edge * graph.NumEdges();
  const double lr0 = config.initial_learning_rate;
  const double lr_min = lr0 * config.final_learning_rate_fraction;

  auto worker = [&](std::size_t worker_index, std::size_t samples) {
    Rng rng(config.seed ^ (0xABCD0000ULL + worker_index));
    std::vector<double> grad(config.dim, 0.0);
    for (std::size_t s = 0; s < samples; ++s) {
      // Linear learning-rate decay over this worker's share; workers run in
      // lockstep statistically so the global schedule is preserved.
      const double progress =
          static_cast<double>(s) / static_cast<double>(samples);
      const double lr = std::max(lr_min, lr0 * (1.0 - progress));
      const graph::Edge& e = tables.edges[tables.edge_sampler.Sample(rng)];
      // Undirected edge: pick a direction uniformly.
      graph::NodeId i = e.record;
      graph::NodeId j = e.mac;
      if (rng.Bernoulli(0.5)) std::swap(i, j);
      TrainStep(tables, config, store, i, j, lr, grad, rng);
    }
  };

  if (config.num_threads == 1) {
    worker(0, total_samples);
  } else {
    // Hogwild-style lock-free parallel SGD: sparse updates rarely collide.
    std::vector<std::thread> threads;
    threads.reserve(config.num_threads);
    const std::size_t share = total_samples / config.num_threads;
    for (std::size_t t = 0; t < config.num_threads; ++t) {
      threads.emplace_back(worker, t, share);
    }
    for (std::thread& t : threads) t.join();
  }
  return store;
}

void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations) {
  const NegativeSamplerSet negatives = NegativeSamplerSet::Build(graph);
  RefineNewNodes(graph, new_nodes, store, config, iterations, negatives);
}

namespace {

// --- refine kernel policies ------------------------------------------------
// The refine loop below is written once against a kernel policy: Dot and
// Axpy over one row, the gradient buffer, and its fused apply. The policy is
// chosen once per RefineNewNodes call (WithRefineKernels); both policies
// compute the same bits.

/// Dim D: the inline kernels with the dim a constant, and the gradient on
/// the stack.
template <std::size_t D>
struct FixedDimKernels {
  std::array<double, D> grad{};

  double Dot(const double* a, const double* b) const {
    return simd::Dot(a, b, D);
  }
  void Axpy(double alpha, const double* x, double* y) const {
    simd::Axpy(alpha, x, y, D);
  }
  /// dst += grad, then grad = 0, in one pass. `dst[c] + grad[c]` equals
  /// the runtime-dim path's `dst[c] + 1.0 * grad[c]` exactly.
  void ApplyGradient(double* dst) {
    for (std::size_t c = 0; c < D; ++c) {
      dst[c] += grad[c];
      grad[c] = 0.0;
    }
  }
};

/// Every other dim: the runtime-length kernels.
struct RuntimeDimKernels {
  explicit RuntimeDimKernels(std::size_t dim) : grad(dim, 0.0) {}

  std::vector<double> grad;

  double Dot(const double* a, const double* b) const {
    return simd::Dot(a, b, grad.size());
  }
  void Axpy(double alpha, const double* x, double* y) const {
    simd::Axpy(alpha, x, y, grad.size());
  }
  void ApplyGradient(double* dst) {
    simd::Axpy(1.0, grad.data(), dst, grad.size());
    std::fill(grad.begin(), grad.end(), 0.0);
  }
};

/// Runs `body(kernels)` with the policy for `dim`. Dim 8 is the one every
/// deployment and benchmark runs (TrainerConfig's default).
template <typename Body>
void WithRefineKernels(std::size_t dim, Body&& body) {
  if (dim == 8) {
    FixedDimKernels<8> kernels;
    body(kernels);
    return;
  }
  RuntimeDimKernels kernels(dim);
  body(kernels);
}

/// One frozen-base negative-sampling term: the positive `target` plus K
/// negatives, read through `target_row`, accumulated into `kernels.grad`.
/// Target rows are never written (Sec. V-A's frozen base model). Works in
/// blocks of up to kBlock samples, three passes per block: every dot
/// product, then every sigmoid, then the gradient axpys in sample order.
/// The independent dot/exp chains sit side by side (1.4-1.5x faster than
/// one pass per sample at dim 8), while the RNG draws and grad's additions
/// keep the order of SampledStep with update_targets=false.
template <typename Kernels, typename TargetRowFn>
void FrozenTerm(Kernels& kernels, const double* src,
                const TargetRowFn& target_row, graph::NodeId target,
                const NegativeSamplerSet& negatives, std::size_t k, double lr,
                Rng& rng) {
  constexpr std::size_t kBlock = 16;
  // Not zeroed: a slot is read only after this block wrote it, and zeroing
  // both arrays on every term made BM_RefineOverlay/600 10-16% slower.
  const double* rows[kBlock];
  double scores[kBlock];
  double* const grad = kernels.grad.data();
  bool positive = true;  // the first block leads with the label-1 sample
  std::size_t left = k;
  while (positive || left > 0) {
    std::size_t n = 0;
    if (positive) rows[n++] = target_row(target);
    for (; n < kBlock && left > 0; --left) {
      const graph::NodeId z = negatives.SampleNode(rng);
      if (z != target) rows[n++] = target_row(z);
    }
    for (std::size_t j = 0; j < n; ++j) scores[j] = kernels.Dot(rows[j], src);
    for (std::size_t j = 0; j < n; ++j) scores[j] = Sigmoid(scores[j]);
    std::size_t j = 0;
    if (positive) {
      kernels.Axpy((1.0 - scores[0]) * lr, rows[0], grad);  // label 1
      j = 1;
      positive = false;
    }
    for (; j < n; ++j) {
      kernels.Axpy(-scores[j] * lr, rows[j], grad);  // label 0
    }
  }
}

/// One refined node's edge sampler and the storage it is rebuilt in. One
/// per thread, reused across nodes and queries: once its capacities cover
/// the largest degree seen, building a node's table allocates nothing.
struct NodeEdgeTable {
  std::vector<double> weights;
  AliasSampler sampler;
  AliasSampler::BuildScratch build;
};

NodeEdgeTable& ThreadNodeEdgeTable() {
  thread_local NodeEdgeTable table;
  return table;
}

/// The refine loop of both RefineNewNodes overloads, for one kernel
/// policy. `Graph` is BipartiteGraph or GraphOverlay; `Store` is
/// EmbeddingStore or EmbeddingOverlay. Only `new_nodes` rows of `store`
/// are written.
template <typename Kernels, typename Graph, typename Store>
void RefineLoop(Kernels& kernels, const Graph& graph,
                std::span<const graph::NodeId> new_nodes, Store& store,
                const TrainerConfig& config, std::size_t iterations,
                const NegativeSamplerSet& negatives) {
  const Store& reads = store;  // const reads may touch any (frozen) row
  const auto ego_row = [&reads](graph::NodeId n) {
    return reads.Ego(n).data();
  };
  const auto context_row = [&reads](graph::NodeId n) {
    return reads.Context(n).data();
  };
  const std::size_t k = config.negative_samples;
  Rng rng(config.seed ^ 0x5EEDFACEULL);
  NodeEdgeTable& edge_table = ThreadNodeEdgeTable();
  const AliasSampler& local_edges = edge_table.sampler;

  for (const graph::NodeId node : new_nodes) {
    const std::span<const graph::Neighbor> neighbors =
        graph.NeighborsOf(node);
    if (neighbors.empty()) continue;  // isolated: keep random init

    // Warm start: weighted average of neighbor embeddings places the node
    // inside its local neighborhood before SGD refinement.
    const std::span<double> node_ego = store.Ego(node);
    const std::span<double> node_context = store.Context(node);
    std::fill(node_ego.begin(), node_ego.end(), 0.0);
    std::fill(node_context.begin(), node_context.end(), 0.0);
    double weight_sum = 0.0;
    for (const graph::Neighbor& nb : neighbors) {
      kernels.Axpy(nb.weight, reads.Ego(nb.node).data(), node_ego.data());
      kernels.Axpy(nb.weight, reads.Context(nb.node).data(),
                   node_context.data());
      weight_sum += nb.weight;
    }
    Scale(node_ego, 1.0 / weight_sum);
    Scale(node_context, 1.0 / weight_sum);
    // The mutable accesses above copied a shared chunk if any had to, and
    // the steps below write only these two rows, so they stay put.
    double* const ego = node_ego.data();
    double* const context = node_context.data();

    // Alias table over this node's incident edges.
    edge_table.weights.clear();
    for (const graph::Neighbor& nb : neighbors) {
      edge_table.weights.push_back(nb.weight);
    }
    edge_table.sampler.Assign(edge_table.weights, edge_table.build);

    const double lr0 = config.initial_learning_rate;
    for (std::size_t s = 0; s < iterations; ++s) {
      const double lr = std::max(
          lr0 * config.final_learning_rate_fraction,
          lr0 * (1.0 - static_cast<double>(s) /
                           static_cast<double>(iterations)));
      const graph::NodeId target = neighbors[local_edges.Sample(rng)].node;
      FrozenTerm(kernels, ego, context_row, target, negatives, k, lr, rng);
      kernels.ApplyGradient(ego);
      if (config.objective == Objective::kELine) {
        FrozenTerm(kernels, context, ego_row, target, negatives, k, lr, rng);
        kernels.ApplyGradient(context);
      }
    }
  }
}

template <typename Graph, typename Store>
void RefineNewNodesImpl(const Graph& graph,
                        std::span<const graph::NodeId> new_nodes,
                        Store& store, const TrainerConfig& config,
                        std::size_t iterations,
                        const NegativeSamplerSet& negatives) {
  Require(store.num_nodes() == graph.NumNodes(),
          "RefineNewNodes: store/graph size mismatch (call Grow first)");
  WithRefineKernels(store.dim(), [&](auto& kernels) {
    RefineLoop(kernels, graph, new_nodes, store, config, iterations,
               negatives);
  });
}

}  // namespace

void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives) {
  RefineNewNodesImpl(graph, new_nodes, store, config, iterations, negatives);
}

void RefineNewNodes(const graph::GraphOverlay& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingOverlay& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives) {
  RefineNewNodesImpl(graph, new_nodes, store, config, iterations, negatives);
}

}  // namespace grafics::embed
