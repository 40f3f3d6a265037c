#include "common/matrix.h"

#include <cmath>

#include "common/simd.h"

namespace grafics {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Random(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                      double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomNormal(std::size_t rows, std::size_t cols, Rng& rng,
                            double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(0.0, stddev);
  return m;
}

double& Matrix::At(std::size_t r, std::size_t c) {
  Require(r < rows_ && c < cols_, "Matrix::At: index out of range");
  return (*this)(r, c);
}

double Matrix::At(std::size_t r, std::size_t c) const {
  Require(r < rows_ && c < cols_, "Matrix::At: index out of range");
  return (*this)(r, c);
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  Require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  Require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Require(cols_ == other.rows_, "Matrix::MatMul: inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  // ikj loop order for cache-friendly access to `other` and `out`. The zero
  // skip stays ahead of the kernel call: sparse inputs (one-hot batches) skip
  // whole rows, and `0.0 * b` would still have to run to honour NaN/inf
  // propagation if it went through axpy.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* brow = other.data() + k * other.cols_;
      double* orow = out.data() + i * other.cols_;
      simd::Axpy(a, brow, orow, other.cols_);
    }
  }
  return out;
}

std::vector<double> Matrix::MatVec(std::span<const double> x) const {
  Require(x.size() == cols_, "Matrix::MatVec: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  simd::DotMany(x.data(), data(), rows_, cols_, y.data());
  return y;
}

std::vector<double> Matrix::TransposedMatVec(std::span<const double> x) const {
  Require(x.size() == rows_, "Matrix::TransposedMatVec: dimension mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    simd::Axpy(x[r], data() + r * cols_, y.data(), cols_);
  }
  return y;
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(simd::Dot(data(), data(), data_.size()));
}

double Dot(std::span<const double> a, std::span<const double> b) {
  Require(a.size() == b.size(), "Dot: dimension mismatch");
  return simd::Dot(a.data(), b.data(), a.size());
}

double SquaredL2Distance(std::span<const double> a,
                         std::span<const double> b) {
  Require(a.size() == b.size(), "SquaredL2Distance: dimension mismatch");
  return simd::SquaredL2Distance(a.data(), b.data(), a.size());
}

double L2Norm(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double CosineDistance(std::span<const double> a, std::span<const double> b) {
  const double na = L2Norm(a);
  const double nb = L2Norm(b);
  if (na == 0.0 || nb == 0.0) return 1.0;
  return 1.0 - Dot(a, b) / (na * nb);
}

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  Require(x.size() == y.size(), "Axpy: dimension mismatch");
  simd::Axpy(alpha, x.data(), y.data(), x.size());
}

void Scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

}  // namespace grafics
