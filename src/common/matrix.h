// Dense row-major matrix and small vector-math helpers.
//
// This is the numeric workhorse shared by the embedding trainer, the neural
// substrate and the baselines. It deliberately stays small: double storage,
// row-major, bounds-checked accessors in debug builds, and the handful of
// BLAS-level-2/3 operations the library needs. All inner loops (dot, axpy,
// squared distance, the mat-vec products) go through the vector-kernel
// layer in common/simd.h, which fixes one reduction order on every host;
// these span-based wrappers add the dimension checks.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace grafics {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(std::size_t n);
  /// Entries i.i.d. uniform in [lo, hi).
  static Matrix Random(std::size_t rows, std::size_t cols, Rng& rng,
                       double lo = -0.5, double hi = 0.5);
  /// Entries i.i.d. normal(0, stddev).
  static Matrix RandomNormal(std::size_t rows, std::size_t cols, Rng& rng,
                             double stddev);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws grafics::Error).
  double& At(std::size_t r, std::size_t c);
  double At(std::size_t r, std::size_t c) const;

  std::span<double> Row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> Row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double value);
  Matrix Transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);
  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  /// Matrix product (this * other).
  Matrix MatMul(const Matrix& other) const;
  /// Matrix-vector product.
  std::vector<double> MatVec(std::span<const double> x) const;
  /// this^T * x  (x has rows() entries, result has cols()).
  std::vector<double> TransposedMatVec(std::span<const double> x) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// --- free vector helpers (operate on spans so both Matrix rows and
//     std::vector can be passed) -------------------------------------------

double Dot(std::span<const double> a, std::span<const double> b);
double SquaredL2Distance(std::span<const double> a, std::span<const double> b);
double L2Norm(std::span<const double> a);
/// 1 - cosine similarity; returns 1 for zero vectors (maximally dissimilar
/// by convention, matching the MDS baseline in the paper).
double CosineDistance(std::span<const double> a, std::span<const double> b);
/// y += alpha * x
void Axpy(double alpha, std::span<const double> x, std::span<double> y);
void Scale(std::span<double> x, double alpha);
/// Numerically-stable logistic function. Both branches of the classic form
/// (1/(1+e^-x) for x >= 0, e^x/(1+e^x) below) share the one exponential
/// z = e^-|x| and the denominator 1+z, so only the numerator is selected:
/// one exp, one division, no branch — bit-identical to the branchy form,
/// and inline for the refine loop.
inline double Sigmoid(double x) {
  const double z = std::exp(-std::fabs(x));
  return (x >= 0.0 ? 1.0 : z) / (1.0 + z);
}

}  // namespace grafics
