#include "layers.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cluster/proximity_clusterer.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/inference_context.h"
#include "embed/embedding_overlay.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_overlay.h"
#include "serve/protocol.h"
#include "util.h"

namespace perfbench {

namespace {

namespace graph = grafics::graph;
namespace embed = grafics::embed;
namespace cluster = grafics::cluster;
namespace wire = grafics::serve;

/// InferenceContext::Predict rebuilt from public stage functions, in the
/// same order and with the same seeds, so its answers must be bit-equal.
class StageReplay {
 public:
  explicit StageReplay(const core::Grafics& model)
      : model_(model),
        weight_fn_(model.config().MakeWeightFn()),
        graph_(model.graph()),
        embeddings_(model.embedding_store()) {
    if (model.config().head != core::InferenceHead::kCentroid) {
      throw std::runtime_error("stage replay supports the centroid head only");
    }
  }

  std::optional<rf::FloorId> Predict(const rf::SignalRecord& record,
                                     Tracer& tracer, std::uint64_t request,
                                     double* sgd_steps) {
    const auto& config = model_.config();
    const double t0 = Now();
    const std::uint32_t root =
        tracer.Open("core.replay", t0, Tracer::kNoParent, request);
    graph_.Reset();
    const bool any_known = std::any_of(
        record.observations().begin(), record.observations().end(),
        [&](const rf::Observation& o) {
          return graph_.base().FindMacNode(o.mac).has_value();
        });
    if (!any_known || record.empty()) {
      tracer.Add("graph.overlay_extend", t0, Now(), root, request);
      tracer.Close(root, Now());
      return std::nullopt;
    }
    const graph::NodeId node = graph_.AddRecord(record, weight_fn_);
    const double t1 = Now();
    tracer.Add("graph.overlay_extend", t0, t1, root, request);

    embeddings_.Reset();
    grafics::Rng grow_rng(config.trainer.seed ^
                          (0x9E3779B9ULL + graph_.BaseNodes()));
    embeddings_.Grow(graph_.NumScratchNodes(), grow_rng);
    scratch_.resize(graph_.NumScratchNodes());
    std::iota(scratch_.begin(), scratch_.end(),
              static_cast<graph::NodeId>(graph_.BaseNodes()));
    const double t2 = Now();
    tracer.Add("embed.grow", t1, t2, root, request);

    embed::RefineNewNodes(graph_, scratch_, embeddings_, config.trainer,
                          config.online_refine_iterations,
                          model_.negative_sampler());
    const double t3 = Now();
    tracer.Add("embed.refine", t2, t3, root, request);

    std::size_t refined = 0;
    for (graph::NodeId n : scratch_) {
      if (!graph_.NeighborsOf(n).empty()) ++refined;
    }
    *sgd_steps = static_cast<double>(refined * config.online_refine_iterations);

    const rf::FloorId floor =
        model_.classifier().Predict(std::as_const(embeddings_).Ego(node));
    const double t4 = Now();
    tracer.Add("cluster.classify", t3, t4, root, request);
    tracer.Close(root, t4);
    return floor;
  }

 private:
  const core::Grafics& model_;
  graph::WeightFn weight_fn_;
  graph::GraphOverlay graph_;
  embed::EmbeddingOverlay embeddings_;
  std::vector<graph::NodeId> scratch_;
};

}  // namespace

InferenceProbe ProbeInference(const core::Grafics& model,
                              const std::vector<rf::SignalRecord>& scans,
                              Tracer& tracer, std::uint64_t first_request) {
  // Each scan goes through InferenceContext::Predict and the replay back to
  // back, so host speed drifts hit both measurements alike.
  InferenceProbe probe;
  core::InferenceContext context = model.MakeContext();
  StageReplay replay(model);
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const double start = Now();
    const std::optional<rf::FloorId> expected = context.Predict(scans[i]);
    const double end = Now();
    tracer.Add("core.predict", start, end, Tracer::kNoParent,
               first_request + i);
    probe.predict_us.push_back((end - start) * 1e6);
    if (expected.has_value()) ++probe.accepted;
    double steps = 0;
    const std::optional<rf::FloorId> floor =
        replay.Predict(scans[i], tracer, first_request + i, &steps);
    if (floor != expected) ++probe.mismatches;
    if (floor.has_value()) probe.sgd_steps.push_back(steps);
  }
  return probe;
}

TrainProbe ProbeTraining(const core::Grafics& trained,
                         const std::vector<rf::SignalRecord>& records,
                         Tracer& tracer, std::uint64_t request) {
  const core::GraficsConfig& config = trained.config();
  TrainProbe probe;
  const double t0 = Now();
  const std::uint32_t root =
      tracer.Open("core.train", t0, Tracer::kNoParent, request);
  const graph::BipartiteGraph built =
      graph::BipartiteGraph::FromRecords(records, config.MakeWeightFn());
  const double t1 = Now();
  tracer.Add("graph.build", t0, t1, root, request);
  const embed::EmbeddingStore store =
      embed::TrainEmbeddings(built, config.trainer);
  const double t2 = Now();
  tracer.Add("embed.train", t1, t2, root, request);
  grafics::Matrix points(records.size(), config.trainer.dim);
  std::vector<std::optional<rf::FloorId>> labels(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto ego = store.Ego(built.RecordNode(i));
    std::copy(ego.begin(), ego.end(), points.Row(i).begin());
    labels[i] = records[i].floor();
  }
  const cluster::ClusteringResult clustering =
      cluster::ClusterEmbeddings(points, labels, config.clusterer);
  const double t3 = Now();
  tracer.Add("cluster.cluster", t2, t3, root, request);
  tracer.Close(root, t3);
  probe.graph_build_s = t1 - t0;
  probe.embed_train_s = t2 - t1;
  probe.cluster_s = t3 - t2;

  const embed::EmbeddingStore& reference = trained.embedding_store();
  bool same = reference.num_nodes() == store.num_nodes();
  for (std::size_t n = 0; same && n < store.num_nodes(); ++n) {
    const auto a = reference.Ego(static_cast<graph::NodeId>(n));
    const auto b = store.Ego(static_cast<graph::NodeId>(n));
    same = std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  probe.matches =
      same &&
      clustering.cluster_of_point == trained.clustering().cluster_of_point &&
      clustering.cluster_label == trained.clustering().cluster_label;
  return probe;
}

CodecProbe ProbeCodec(const std::vector<rf::SignalRecord>& scans,
                      const std::string& model) {
  constexpr int kRepeats = 20;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  wire::PredictResponse response;
  response.results.push_back(
      wire::PredictResult{wire::PredictStatus::kOk, 1, {}});
  const std::string response_payload = wire::EncodePayload(response);
  std::size_t sink = 0;
  for (const rf::SignalRecord& scan : scans) {
    wire::PredictRequest request;
    request.model = model;
    request.records.push_back(scan);
    double start = Now();
    for (int r = 0; r < kRepeats; ++r) {
      sink += wire::EncodeFrame(request).size();
    }
    encode_us.push_back((Now() - start) * 1e6 / kRepeats);
    start = Now();
    for (int r = 0; r < kRepeats; ++r) {
      sink += wire::DecodePayload(response_payload).index();
    }
    decode_us.push_back((Now() - start) * 1e6 / kRepeats);
  }
  if (sink == 0) throw std::runtime_error("codec probe encoded nothing");
  return CodecProbe{Median(encode_us), Median(decode_us)};
}

}  // namespace perfbench
