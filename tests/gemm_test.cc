#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace lsched {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      m.at(i, j) = rng->Uniform() * 2.0 - 1.0;
    }
  }
  return m;
}

/// The oracle: the textbook i-k-j loop, skipping zero entries of A.
void MatMulNaiveInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ASSERT_EQ(a.cols(), b.rows());
  out->Resize(a.rows(), b.cols());
  const int n = b.cols();
  for (int i = 0; i < a.rows(); ++i) {
    double* crow = out->data() + static_cast<size_t>(i) * n;
    for (int k = 0; k < a.cols(); ++k) {
      const double av = a.at(i, k);
      if (av == 0.0) continue;
      const double* brow = b.data() + static_cast<size_t>(k) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

/// Blocked and naive kernels accumulate products for each output element in
/// the same k-ascending order, so they agree to tight tolerance on every
/// shape — including ones that are not multiples of the register/panel
/// blocking (4 rows, 128-deep k panels).
TEST(GemmEquivalenceTest, BlockedMatchesNaiveAcrossShapes) {
  Rng rng(1234);
  const int shapes[][3] = {
      {1, 1, 1},    {1, 8, 1},    {1, 300, 7},   // single-row serving GEMMs
      {2, 3, 5},    {4, 4, 4},    {5, 128, 9},   // exact k-panel boundary
      {4, 129, 4},  {3, 127, 3},                 // straddling the k panel
      {8, 64, 32},  {9, 65, 33},  {16, 256, 16}, // multi-panel, odd remainders
      {37, 41, 43},                              // all-prime stress shape
  };
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], &rng);
    const Matrix b = RandomMatrix(s[1], s[2], &rng);
    Matrix naive(s[0], s[2]), blocked(s[0], s[2]);
    MatMulNaiveInto(a, b, &naive);
    MatMulBlockedInto(a, b, &blocked);
    EXPECT_LE(MaxAbsDiff(naive, blocked), 1e-12)
        << "shape " << s[0] << "x" << s[1] << "x" << s[2];
  }
}

/// The naive kernel skips zero entries of A; with no zeros both kernels add
/// exactly the same doubles in the same order, so the results are
/// bit-identical (not merely close).
TEST(GemmEquivalenceTest, BitIdenticalOnDenseInputs) {
  Rng rng(77);
  const Matrix a = RandomMatrix(9, 131, &rng);  // no exact zeros from Uniform
  const Matrix b = RandomMatrix(131, 17, &rng);
  Matrix naive(9, 17), blocked(9, 17);
  MatMulNaiveInto(a, b, &naive);
  MatMulBlockedInto(a, b, &blocked);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive.data()[i], blocked.data()[i]) << "element " << i;
  }
}

TEST(GemmEquivalenceTest, SparseInputsStayWithinTolerance) {
  Rng rng(99);
  Matrix a = RandomMatrix(6, 96, &rng);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      if (rng.Uniform() < 0.5) a.at(i, j) = 0.0;  // exercise the skip path
    }
  }
  const Matrix b = RandomMatrix(96, 11, &rng);
  Matrix naive(6, 11), blocked(6, 11);
  MatMulNaiveInto(a, b, &naive);
  MatMulBlockedInto(a, b, &blocked);
  EXPECT_LE(MaxAbsDiff(naive, blocked), 1e-9);
}

TEST(GemmBackendTest, BackendMatchesNaiveOracle) {
  Rng rng(5);
  const Matrix a = RandomMatrix(4, 32, &rng);
  const Matrix b = RandomMatrix(32, 4, &rng);
  Matrix expected(4, 4);
  MatMulNaiveInto(a, b, &expected);

  const Matrix via_backend = GemmBackend::Global().MatMul(a, b);
  EXPECT_LE(MaxAbsDiff(expected, via_backend), 1e-12);
  Matrix into(4, 4);
  GemmBackend::Global().MatMulInto(a, b, &into);
  EXPECT_LE(MaxAbsDiff(expected, into), 1e-12);
}

TEST(GemmEquivalenceTest, MatchesMatrixMatMulReference) {
  Rng rng(31);
  const Matrix a = RandomMatrix(7, 23, &rng);
  const Matrix b = RandomMatrix(23, 9, &rng);
  const Matrix reference = Matrix::MatMul(a, b);
  Matrix blocked(7, 9);
  MatMulBlockedInto(a, b, &blocked);
  EXPECT_LE(MaxAbsDiff(reference, blocked), 1e-12);
}

/// Matrix row storage is 64-byte aligned so the blocked kernel's contiguous
/// row accesses stay on cache-line boundaries.
TEST(MatrixAlignmentTest, StorageIs64ByteAligned) {
  for (int n : {1, 3, 64, 1000}) {
    Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u) << "n=" << n;
  }
}

}  // namespace
}  // namespace lsched
