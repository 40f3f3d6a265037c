// The out-of-line kernels of common/simd.h. Reductions follow the one
// lane order documented there; do not "improve" them with pairwise
// summation or a different lane count — that would change answers, and
// the goldens in tests/simd_test.cc pin them to the last bit.
#include "common/simd.h"

namespace grafics::simd {

double SquaredL2Distance(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double d = a[i + j] - b[i + j];
      lane[j] += d * d;
    }
  }
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void DotMany(const double* query, const double* rows, std::size_t num_rows,
             std::size_t cols, double* out) {
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = Dot(query, rows + r * cols, cols);
  }
}

void SquaredL2DistanceMany(const double* query, const double* rows,
                           std::size_t num_rows, std::size_t cols,
                           double* out) {
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = SquaredL2Distance(query, rows + r * cols, cols);
  }
}

}  // namespace grafics::simd
