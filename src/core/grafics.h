// The GRAFICS system: the paper's end-to-end pipeline.
//
// Offline training (Sec. IV): bipartite graph -> E-LINE embeddings ->
// proximity-based hierarchical clustering -> nearest-centroid classifier.
// Online inference (Sec. V): extend the graph with the new record, refine
// only its embeddings (base model frozen), classify against centroids.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/centroid_classifier.h"
#include "cluster/knn_classifier.h"
#include "cluster/proximity_clusterer.h"
#include "common/alias_sampler.h"
#include "common/cow.h"
#include "embed/negative_sampler.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "graph/weight_function.h"
#include "rf/dataset.h"

namespace grafics::core {

class InferenceContext;

/// How a new embedding is mapped to a floor at inference time.
enum class InferenceHead {
  kCentroid,  // nearest cluster centroid — the paper's rule (Sec. V-B)
  kKnn,       // weighted k-NN over virtually-labeled training embeddings
};

struct GraficsConfig {
  /// Edge-weight offset alpha of Eq. (2); the paper uses 120.
  double weight_offset = 120.0;
  /// Replaces the offset weight entirely when set (Fig. 16 ablation).
  graph::WeightFn custom_weight;
  embed::TrainerConfig trainer;
  cluster::ClustererConfig clusterer;
  /// SGD steps per new node during online inference (Sec. V-A).
  std::size_t online_refine_iterations = 600;
  InferenceHead head = InferenceHead::kCentroid;
  cluster::KnnConfig knn;  // used when head == kKnn

  graph::WeightFn MakeWeightFn() const {
    return custom_weight ? custom_weight : graph::OffsetWeight(weight_offset);
  }
};

/// Options for Grafics::PredictBatch.
struct BatchPredictOptions {
  /// Worker threads to fan queries over (one InferenceContext per worker).
  /// 0 maps to hardware_concurrency. Results are bit-identical for every
  /// thread count because queries are snapshot-isolated.
  std::size_t num_threads = 1;
  /// Folds the accepted records (those that produced a prediction) back
  /// into the trained model after the batch, with Update semantics: graph
  /// extended, new embeddings refined against the frozen base, clusters and
  /// centroids untouched. Requires a non-const Grafics.
  bool keep = false;
};

class Grafics {
 public:
  explicit Grafics(GraficsConfig config = {});

  /// Offline training on crowdsourced records; the floor labels present on
  /// records are the (few) labeled samples. Requires >= 1 labeled record.
  void Train(const std::vector<rf::SignalRecord>& records);

  bool is_trained() const { return classifier_ != nullptr; }

  /// Online inference: extends a snapshot-isolated overlay of the graph
  /// with the record, learns its embedding with the base model frozen, and
  /// returns the floor of the nearest cluster centroid. Returns nullopt
  /// when the record shares no MAC with the graph (the paper discards such
  /// samples as outside the building). Side-effect-free: the trained model
  /// is left untouched. Callers serving many queries should reuse an
  /// InferenceContext (MakeContext) to amortize scratch allocations.
  std::optional<rf::FloorId> Predict(const rf::SignalRecord& record) const;

  /// Batch inference over snapshot-isolated contexts, optionally fanned out
  /// over a thread pool (options.num_threads, one context per worker).
  /// Predictions are bit-identical for every thread count. The const
  /// overload leaves the model untouched and rejects options.keep.
  std::vector<std::optional<rf::FloorId>> PredictBatch(
      const std::vector<rf::SignalRecord>& records,
      const BatchPredictOptions& options = {}) const;

  /// As above; additionally folds accepted records back into the model when
  /// options.keep is set (preserving Update semantics).
  std::vector<std::optional<rf::FloorId>> PredictBatch(
      const std::vector<rf::SignalRecord>& records,
      const BatchPredictOptions& options = {});

  /// Creates a reusable snapshot-isolated serving session over this model.
  /// The model must outlive the context and not be mutated (Train/Update)
  /// while the context is in use.
  InferenceContext MakeContext() const;

  /// Incorporates a batch of additional crowdsourced records WITHOUT a full
  /// retrain: the graph is extended, only the new nodes' embeddings are
  /// learned (base model frozen), and the clusters/centroids are untouched.
  /// Floor labels on the records are ignored — relabeling requires Train.
  /// Returns the number of records added. This implements the paper's
  /// "easily extendable for new RF records" claim at batch granularity.
  std::size_t Update(const std::vector<rf::SignalRecord>& records);

  /// O(1) structural fork of the whole system. The trained components —
  /// clustering, classifiers, negative sampler — are immutable and shared
  /// by pointer; the graph and embedding tables are chunked copy-on-write
  /// (common/cow.h), so the fork shares every chunk with the source until
  /// one of them writes it. Update on the fork therefore never disturbs
  /// readers of the source, predictions from the fork are bit-identical to
  /// the source's, and publish cost is proportional to the fold-in delta,
  /// not the model. This is the copy-on-write primitive of the online
  /// ingestion pipeline. Works on trained and untrained systems.
  Grafics Clone() const;

  /// Ego embedding of training record i (diagnostics, Fig. 6/8 exports).
  std::span<const double> TrainingEmbedding(std::size_t record_index) const;
  /// Ego embeddings of all training records as rows.
  Matrix TrainingEmbeddings() const;

  const graph::BipartiteGraph& graph() const { return graph_; }
  /// Trained embedding tables (one ego/context row pair per graph node).
  const embed::EmbeddingStore& embedding_store() const;
  const cluster::ClusteringResult& clustering() const;
  const cluster::CentroidClassifier& classifier() const;
  /// The frozen-base negative-sampling distribution (tests, diagnostics).
  const embed::NegativeSamplerSet& negative_sampler() const;
  const GraficsConfig& config() const { return config_; }

  /// Heap bytes of the trained state, split into bytes shared with other
  /// snapshots (forks, the serving registry) vs owned exclusively. Chunk
  /// granular; surfaced through serve::ModelStats so the copy-on-write
  /// sharing is observable over the wire.
  CowBytes MemoryBytes() const;

  /// Persists the trained model (graph, embeddings, clustering, centroids,
  /// config) to `path`. Requires a trained system and a serializable weight
  /// function (custom_weight lambdas cannot be saved — throws if one is
  /// set). Writes artifact format v2, whose exact graph state and exact
  /// negative-sampler tables make the load bit-identical to the live model
  /// — including future Update draw sequences.
  void SaveModel(const std::string& path) const;
  /// Restores a model saved by SaveModel; ready for Predict immediately.
  /// Accepts artifact format v2 only; any other version throws.
  static Grafics LoadModel(const std::string& path);

  /// Stream variants of SaveModel/LoadModel (store::ModelStore writes
  /// artifacts through temp files and composes them with delta sections).
  void SaveModel(std::ostream& out) const;
  static Grafics LoadModel(std::istream& in);

  /// True when `base` is a snapshot this model was forked from with only
  /// Update folds in between — the precondition for SaveDelta. Train (or a
  /// different model entirely) replaces the immutable components and makes
  /// a delta impossible; callers fall back to a full base artifact.
  bool DeltaCompatible(const Grafics& base) const;

  /// Writes a delta checkpoint against `base`: only the copy-on-write
  /// chunks this model owns relative to the base (plus appended sampler
  /// groups) are serialized — O(folded delta), not O(model). Requires
  /// DeltaCompatible(base).
  void SaveDelta(std::ostream& out, const Grafics& base) const;
  /// Mutates a model loaded from the base's artifact into the exact state
  /// SaveDelta captured. Chunks absent from the delta remain the loaded
  /// base's storage — the on-disk mirror of Clone's structural sharing.
  void ApplyDelta(std::istream& in);

 private:
  // InferenceContext is the serving-path view over the trained members; it
  // only ever reads them.
  friend class InferenceContext;

  /// (Re)builds the frozen-base negative sampler used by online refinement.
  void RebuildNegativeSampler();
  /// Appends `record` to the graph + store and refines the new nodes.
  /// Returns the new record node; appends every node whose degree changed
  /// (the new nodes plus the record's existing MAC neighbors) to `touched`.
  graph::NodeId ExtendWith(const rf::SignalRecord& record,
                           std::vector<graph::NodeId>* touched);

  GraficsConfig config_;
  graph::WeightFn weight_fn_;
  // Chunked copy-on-write containers: copying them shares storage with the
  // copy (Clone), mutating copies only the touched chunks (Update).
  graph::BipartiteGraph graph_;
  std::size_t num_training_records_ = 0;
  std::optional<embed::EmbeddingStore> store_;
  // Immutable trained components, shared between forks by pointer. Train
  // (and LoadModel) replace them wholesale; Update never touches them
  // except the negative sampler, which it replaces with an O(delta)
  // extension sharing the previous groups.
  std::shared_ptr<const cluster::ClusteringResult> clustering_;
  std::shared_ptr<const cluster::CentroidClassifier> classifier_;
  std::shared_ptr<const cluster::KnnClassifier> knn_classifier_;
  // Negative sampler over the frozen base model, shared by all predictions.
  std::shared_ptr<const embed::NegativeSamplerSet> negative_sampler_;
};

}  // namespace grafics::core
