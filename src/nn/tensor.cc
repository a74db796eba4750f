#include "nn/tensor.h"

#include <cmath>

#include "util/logging.h"

namespace lsched {

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  const double scale = std::sqrt(2.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) v = rng->Normal(0.0, scale);
  return m;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::AddInPlace(const Matrix& other) {
  LSCHED_DCHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  LSCHED_DCHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  LSCHED_CHECK(a.cols_ == b.rows_)
      << "matmul shape mismatch: " << a.rows_ << "x" << a.cols_ << " * "
      << b.rows_ << "x" << b.cols_;
  Matrix c(a.rows_, b.cols_);
  for (int i = 0; i < a.rows_; ++i) {
    for (int k = 0; k < a.cols_; ++k) {
      const double av = a.at(i, k);
      if (av == 0.0) continue;
      const double* brow = b.data() + static_cast<size_t>(k) * b.cols_;
      double* crow = c.data() + static_cast<size_t>(i) * c.cols_;
      for (int j = 0; j < b.cols_; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace lsched
