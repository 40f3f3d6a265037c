// In-process per-layer measurements for the traced run. Each probe calls
// the public functions of one layer from the benchmark's own code and
// records a span around every call; nothing under src/ is instrumented.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/grafics.h"
#include "rf/signal_record.h"
#include "trace.h"

namespace perfbench {

namespace core = grafics::core;
namespace rf = grafics::rf;

struct InferenceProbe {
  /// InferenceContext::Predict per scan (one context reused), microseconds.
  std::vector<double> predict_us;
  std::size_t accepted = 0;
  /// Refinement SGD steps per accepted scan (iterations x refined nodes).
  std::vector<double> sgd_steps;
  /// Scans whose stage replay disagreed with InferenceContext::Predict.
  std::size_t mismatches = 0;
};

/// Times InferenceContext::Predict on every scan, then replays each scan
/// through the public stages it is built from — GraphOverlay::AddRecord,
/// EmbeddingOverlay::Grow, embed::RefineNewNodes, CentroidClassifier::
/// Predict — with spans "graph.overlay_extend", "embed.grow",
/// "embed.refine", "cluster.classify" under a "core.replay" root (request
/// id = first_request + scan index). Requires the centroid head.
InferenceProbe ProbeInference(const core::Grafics& model,
                              const std::vector<rf::SignalRecord>& scans,
                              Tracer& tracer, std::uint64_t first_request);

struct TrainProbe {
  double graph_build_s = 0;
  double embed_train_s = 0;
  double cluster_s = 0;
  /// The replay's embeddings and clustering equal the trained model's.
  bool matches = false;
};

/// Replays Grafics::Train stage by stage — BipartiteGraph::FromRecords,
/// embed::TrainEmbeddings, cluster::ClusterEmbeddings — with spans
/// "graph.build", "embed.train", "cluster.cluster" under "core.train", and
/// compares the result with `trained` (trained on the same records with
/// the same config).
TrainProbe ProbeTraining(const core::Grafics& trained,
                         const std::vector<rf::SignalRecord>& records,
                         Tracer& tracer, std::uint64_t request);

struct CodecProbe {
  double encode_us = 0;  // EncodeFrame of a one-record PredictRequest
  double decode_us = 0;  // DecodePayload of a one-result PredictResponse
};

/// Median per-call cost of the protocol codec on the benchmark's frames.
CodecProbe ProbeCodec(const std::vector<rf::SignalRecord>& scans,
                      const std::string& model);

}  // namespace perfbench
