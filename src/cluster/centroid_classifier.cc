#include "cluster/centroid_classifier.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"

namespace grafics::cluster {

CentroidClassifier::CentroidClassifier(const Matrix& points,
                                       const ClusteringResult& clustering) {
  Require(points.rows() == clustering.cluster_of_point.size(),
          "CentroidClassifier: points/clustering size mismatch");
  const std::size_t total_clusters = clustering.num_clusters();

  // Accumulate sums per labeled cluster.
  std::vector<std::size_t> labeled_cluster_ids;
  for (std::size_t c = 0; c < total_clusters; ++c) {
    if (clustering.cluster_label[c].has_value()) {
      labeled_cluster_ids.push_back(c);
    }
  }
  Require(!labeled_cluster_ids.empty(),
          "CentroidClassifier: no labeled clusters to classify against");

  std::vector<std::size_t> dense_id(total_clusters, total_clusters);
  for (std::size_t k = 0; k < labeled_cluster_ids.size(); ++k) {
    dense_id[labeled_cluster_ids[k]] = k;
  }

  centroids_ = Matrix(labeled_cluster_ids.size(), points.cols());
  labels_.resize(labeled_cluster_ids.size());
  std::vector<std::size_t> counts(labeled_cluster_ids.size(), 0);
  for (std::size_t k = 0; k < labeled_cluster_ids.size(); ++k) {
    labels_[k] = *clustering.cluster_label[labeled_cluster_ids[k]];
  }
  for (std::size_t p = 0; p < points.rows(); ++p) {
    const std::size_t c = clustering.cluster_of_point[p];
    const std::size_t k = dense_id[c];
    if (k == total_clusters) continue;  // unlabeled cluster: skip
    Axpy(1.0, points.Row(p), centroids_.Row(k));
    ++counts[k];
  }
  for (std::size_t k = 0; k < counts.size(); ++k) {
    Require(counts[k] > 0, "CentroidClassifier: empty labeled cluster");
    Scale(centroids_.Row(k), 1.0 / static_cast<double>(counts[k]));
  }
}

CentroidClassifier::CentroidClassifier(Matrix centroids,
                                       std::vector<rf::FloorId> labels)
    : centroids_(std::move(centroids)), labels_(std::move(labels)) {
  Require(centroids_.rows() == labels_.size(),
          "CentroidClassifier: centroid/label count mismatch");
  Require(!labels_.empty(), "CentroidClassifier: need >= 1 centroid");
}

namespace {
constexpr char kClassifierMagic[4] = {'G', 'C', 'T', 'R'};
constexpr std::uint32_t kClassifierVersion = 1;
}  // namespace

void CentroidClassifier::Save(std::ostream& out) const {
  WriteHeader(out, kClassifierMagic, kClassifierVersion);
  WriteMatrix(out, centroids_);
  WriteU64(out, labels_.size());
  for (const rf::FloorId label : labels_) WriteI32(out, label);
}

CentroidClassifier CentroidClassifier::Load(std::istream& in) {
  CheckHeader(in, kClassifierMagic, kClassifierVersion);
  CentroidClassifier classifier;
  classifier.centroids_ = ReadMatrix(in);
  const std::uint64_t count = ReadU64(in);
  Require(count == classifier.centroids_.rows(),
          "CentroidClassifier::Load: centroid/label count mismatch");
  classifier.labels_.resize(count);
  for (std::size_t i = 0; i < count; ++i) classifier.labels_[i] = ReadI32(in);
  Require(!classifier.labels_.empty(),
          "CentroidClassifier::Load: empty classifier");
  return classifier;
}

std::pair<std::size_t, double> CentroidClassifier::Nearest(
    std::span<const double> embedding) const {
  Require(embedding.size() == centroids_.cols(),
          "CentroidClassifier::Nearest: dimension mismatch");
  // Batched scans over the packed centroid matrix, a block of rows at a
  // time into a stack buffer (no heap allocation per query; each row's
  // distance is computed on its own, so blocking changes no bits), then an
  // in-order strict-< argmin — same winner on ties (lowest index) as the
  // old per-row loop.
  constexpr std::size_t kBlock = 64;
  double dists[kBlock];
  const std::size_t rows = centroids_.rows();
  const std::size_t cols = centroids_.cols();
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t first = 0; first < rows; first += kBlock) {
    const std::size_t n = std::min(kBlock, rows - first);
    simd::SquaredL2DistanceMany(embedding.data(),
                                centroids_.data() + first * cols, n, cols,
                                dists);
    for (std::size_t k = 0; k < n; ++k) {
      if (dists[k] < best_dist) {
        best_dist = dists[k];
        best = first + k;
      }
    }
  }
  return {best, std::sqrt(best_dist)};
}

rf::FloorId CentroidClassifier::Predict(
    std::span<const double> embedding) const {
  return labels_[Nearest(embedding).first];
}

}  // namespace grafics::cluster
