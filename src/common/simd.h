// Portable vector-kernel layer for the inference/fold hot path.
//
// Every per-query and per-fold cycle in GRAFICS bottoms out in three
// BLAS-level-1 loops — dot products, axpy, and squared-L2 distances. This
// header is the single place those loops are implemented. Callers:
//  * the per-query refine loop (embed/trainer.cc RefineNewNodes), through
//    the inline FixedDot/FixedAxpy below at dim 8 on the scalar and AVX2
//    backends, and through the dispatched Kernels table for every other
//    dim and for NEON;
//  * offline E-LINE training (embed/trainer.cc TrainEmbeddings) and the
//    common/matrix.{h,cc} span helpers, through the dispatched entry points;
//  * the centroid/kNN distance scans (cluster/) and agglomeration
//    (cluster/proximity_clusterer.cc), through the one-to-many kernels.
// The dispatched kernels are a scalar reference backend plus AVX2 (x86) and
// NEON (aarch64) implementations behind one function-pointer table,
// selected once per process.
//
// Shapes: the one-to-one kernels (Dot / SquaredL2Distance / Axpy) operate on
// raw contiguous arrays; the one-to-many kernels (DotMany /
// SquaredL2DistanceMany) scan one query row against a contiguous row-major
// block — the shape the centroid and kNN classifiers actually have — so a
// whole scan is one call with no per-row span slicing.
//
// Determinism policy (see docs/performance.md):
//  * The scalar backend is bit-identical to the pre-SIMD hand-written loops:
//    same accumulation order, and its translation unit is compiled with
//    -ffp-contract=off so no FMA contraction can change a rounding.
//  * The backend is resolved ONCE per process (first kernel call or explicit
//    PinBackend) and never changes afterwards on the production path, so a
//    journal replay or a replica folding the same batches computes
//    bit-identical models within that process — and across processes that
//    pin the same backend via GRAFICS_SIMD.
//  * SIMD backends reorder the reduction (lane-wise partial sums), so their
//    Dot/SquaredL2Distance results may differ from scalar in the last bits;
//    parity is tested to 1e-12 relative tolerance. Axpy is element-wise with
//    no reduction, so every backend is bit-identical to scalar there.
//  * FixedDot reproduces one backend's reduction order exactly (SumOrder),
//    so swapping a dispatched call for its fixed-dim twin changes no bit.
//    Like the backends, a translation unit that calls them must be compiled
//    with -ffp-contract=off (CMakeLists.txt lists each one).
//
// Selection order: PinBackend() if called before first use, else the
// GRAFICS_SIMD environment variable (scalar|avx2|neon), else the best
// backend the CPU supports. An explicitly requested backend that this build
// or CPU cannot run falls back to scalar with a one-line stderr warning —
// a fleet-wide GRAFICS_SIMD=avx2 must not crash the one NEON box — while
// the daemon's --simd flag treats unavailability as a hard error.
#pragma once

#include <cstddef>

namespace grafics::simd {

enum class Backend { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Stable lowercase name ("scalar", "avx2", "neon") — the GRAFICS_SIMD
/// vocabulary, the --simd flag vocabulary, and the obs gauge label.
const char* BackendName(Backend backend);

/// Parses a BackendName string. Throws grafics::Error on anything else.
Backend ParseBackendName(const char* name);

/// One backend's kernel implementations. All pointers are non-null.
/// No bounds checks here: callers (common/matrix.cc free functions, the
/// trainer, the classifiers) validate sizes before dispatch.
struct Kernels {
  double (*dot)(const double* a, const double* b, std::size_t n);
  double (*squared_l2_distance)(const double* a, const double* b,
                                std::size_t n);
  /// y += alpha * x
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// out[r] = dot(query, rows + r * cols) for r in [0, num_rows).
  void (*dot_many)(const double* query, const double* rows,
                   std::size_t num_rows, std::size_t cols, double* out);
  /// out[r] = squared_l2_distance(query, rows + r * cols).
  void (*squared_l2_distance_many)(const double* query, const double* rows,
                                   std::size_t num_rows, std::size_t cols,
                                   double* out);
};

/// Kernel table for `backend`, or nullptr when this build/CPU cannot run it
/// (e.g. kAvx2 on aarch64). The scalar table is always available. Used by
/// the parity tests to exercise every backend without re-pinning the
/// process-wide dispatch.
const Kernels* KernelsFor(Backend backend);

/// The process-wide active backend, resolving it on first call (see the
/// selection order above). Stable for the remainder of the process unless
/// PinBackend is called (tests only, on the production path the daemon pins
/// before any kernel runs).
Backend ActiveBackend();

/// Pins the process-wide backend explicitly, overriding GRAFICS_SIMD and
/// auto-detection. Returns false (and leaves the dispatch untouched) when
/// the backend is unavailable on this build/CPU. The daemon calls this for
/// --simd before loading models; tests use it to anchor scalar bit-identity.
bool PinBackend(Backend backend);

// --- hot-path entry points -------------------------------------------------
// Thin dispatch through the active table. `n`/`cols` may be zero.

double Dot(const double* a, const double* b, std::size_t n);
double SquaredL2Distance(const double* a, const double* b, std::size_t n);
void Axpy(double alpha, const double* x, double* y, std::size_t n);
void DotMany(const double* query, const double* rows, std::size_t num_rows,
             std::size_t cols, double* out);
void SquaredL2DistanceMany(const double* query, const double* rows,
                           std::size_t num_rows, std::size_t cols,
                           double* out);

// --- fixed-dim inline kernels ----------------------------------------------
// For a loop whose dim is a compile-time constant, these inline to
// straight-line code with no table lookup and no call. Each reproduces a
// dispatched kernel bit for bit (SimdTest.FixedKernelsMatchTheirBackend-
// BitForBit).

/// Reduction order of a dot product: the scalar backend's single running
/// sum, or the AVX2 backend's four lane sums (lane j takes elements
/// j, j+4, ...) collapsed as (l0+l1)+(l2+l3).
enum class SumOrder { kScalar, kAvx2Lanes };

template <std::size_t D, SumOrder Order>
inline double FixedDot(const double* a, const double* b) {
  if constexpr (Order == SumOrder::kScalar) {
    double sum = 0.0;
    for (std::size_t i = 0; i < D; ++i) sum += a[i] * b[i];
    return sum;
  } else {
    static_assert(D % 4 == 0, "the AVX2 order has no tail below 4 lanes");
    // Lanes start at +0.0 like the vector accumulator, so signed zeros
    // round exactly as they do there.
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < D; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) lane[j] += a[i + j] * b[i + j];
    }
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
  }
}

/// y += alpha * x. Element-wise, so one version matches every backend.
template <std::size_t D>
inline void FixedAxpy(double alpha, const double* x, double* y) {
  for (std::size_t i = 0; i < D; ++i) y[i] += alpha * x[i];
}

namespace internal {
/// Backend factories (simd_avx2.cc / simd_neon.cc): the backend's kernel
/// table when this build target AND this CPU can run it, else nullptr.
const Kernels* Avx2Kernels();
const Kernels* NeonKernels();
}  // namespace internal

}  // namespace grafics::simd
