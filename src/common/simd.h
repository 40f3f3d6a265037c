// Vector-kernel layer for the inference/fold hot path.
//
// Every per-query and per-fold cycle in GRAFICS bottoms out in three
// BLAS-level-1 loops — dot products, axpy, and squared-L2 distances. This
// header is the single place those loops are implemented. Callers:
//  * the per-query refine loop (embed/trainer.cc RefineNewNodes), which
//    inlines Dot and Axpy with the dim a constant at dim 8;
//  * offline E-LINE training (embed/trainer.cc TrainEmbeddings) and the
//    common/matrix.{h,cc} span helpers;
//  * the centroid/kNN distance scans (cluster/) and agglomeration
//    (cluster/proximity_clusterer.cc), through the one-to-many kernels.
//
// Shapes: the one-to-one kernels (Dot / SquaredL2Distance / Axpy) operate on
// raw contiguous arrays; the one-to-many kernels (DotMany /
// SquaredL2DistanceMany) scan one query row against a contiguous row-major
// block — the shape the centroid and kNN classifiers actually have — so a
// whole scan is one call with no per-row span slicing.
//
// Determinism policy (see docs/performance.md): the kernels are plain C++
// with one reduction order, the same on every host, so a journal replay or
// a replica folding the same batches computes bit-identical models on any
// machine with the same libm. A reduction keeps four lane sums — lane j takes elements j,
// j+4, j+8, ... — collapses them as (l0+l1)+(l2+l3), then adds the tail
// (n % 4 elements) in order. Axpy is element-wise with no reduction. The
// build compiles every target with -ffp-contract=off (CMakeLists.txt), so
// neither auto-vectorisation nor FMA contraction can change a rounding.
#pragma once

#include <cstddef>

namespace grafics::simd {

// No bounds checks here: callers (common/matrix.cc free functions, the
// trainer, the classifiers) validate sizes first. `n`/`cols` may be zero.

/// Sum of a[i] * b[i] over [0, n), in the lane order above. Inline, like
/// Axpy, so a caller with a compile-time n (the dim-8 refine loop in
/// embed/trainer.cc) gets straight-line code with no call.
inline double Dot(const double* a, const double* b, std::size_t n) {
  // Lanes start at +0.0, so signed zeros round the same at every n.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) lane[j] += a[i + j] * b[i + j];
  }
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y += alpha * x
inline void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double SquaredL2Distance(const double* a, const double* b, std::size_t n);
/// out[r] = Dot(query, rows + r * cols) for r in [0, num_rows).
void DotMany(const double* query, const double* rows, std::size_t num_rows,
             std::size_t cols, double* out);
/// out[r] = SquaredL2Distance(query, rows + r * cols).
void SquaredL2DistanceMany(const double* query, const double* rows,
                           std::size_t num_rows, std::size_t cols,
                           double* out);

}  // namespace grafics::simd
