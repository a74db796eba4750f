#include "nn/gemm.h"

#include <algorithm>

#include "util/logging.h"

namespace lsched {

namespace {

// Blocking parameters for MatMulBlockedInto. kKc k-rows of B (times a
// typical n of a few hundred doubles) fit comfortably in L1/L2 so each
// panel of B is streamed once per 4-row group of A; kMr output rows share
// every B-row load through register accumulators.
constexpr int kKc = 128;
constexpr int kMr = 4;

void CheckShapes(const Matrix& a, const Matrix& b) {
  LSCHED_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols();
}

}  // namespace

void MatMulBlockedInto(const Matrix& a, const Matrix& b, Matrix* out) {
  CheckShapes(a, b);
  const int m = a.rows();
  const int kk = a.cols();
  const int n = b.cols();
  out->Resize(m, n);
  double* c = out->data();
  const double* bd = b.data();
  // k-panels ascending, k ascending within a panel: every output element
  // accumulates its k-terms in ascending order, like the reference i-k-j loop.
  for (int k0 = 0; k0 < kk; k0 += kKc) {
    const int k1 = std::min(k0 + kKc, kk);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const double* a0 = a.data() + static_cast<size_t>(i) * kk;
      const double* a1 = a0 + kk;
      const double* a2 = a1 + kk;
      const double* a3 = a2 + kk;
      double* c0 = c + static_cast<size_t>(i) * n;
      double* c1 = c0 + n;
      double* c2 = c1 + n;
      double* c3 = c2 + n;
      for (int k = k0; k < k1; ++k) {
        const double av0 = a0[k];
        const double av1 = a1[k];
        const double av2 = a2[k];
        const double av3 = a3[k];
        const double* brow = bd + static_cast<size_t>(k) * n;
        if (av0 != 0.0 && av1 != 0.0 && av2 != 0.0 && av3 != 0.0) {
          // Dense fast path (embedding/head GEMMs): all four rows share
          // each B-row load through register accumulators.
          for (int j = 0; j < n; ++j) {
            const double bv = brow[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
          }
        } else {
          // Sparse path: skip zero A entries (one-hot feature rows are
          // mostly zeros); gemm_test's reference loop skips them too, so
          // results stay bit-identical to it.
          if (av0 != 0.0) {
            for (int j = 0; j < n; ++j) c0[j] += av0 * brow[j];
          }
          if (av1 != 0.0) {
            for (int j = 0; j < n; ++j) c1[j] += av1 * brow[j];
          }
          if (av2 != 0.0) {
            for (int j = 0; j < n; ++j) c2[j] += av2 * brow[j];
          }
          if (av3 != 0.0) {
            for (int j = 0; j < n; ++j) c3[j] += av3 * brow[j];
          }
        }
      }
    }
    for (; i < m; ++i) {
      const double* arow = a.data() + static_cast<size_t>(i) * kk;
      double* crow = c + static_cast<size_t>(i) * n;
      for (int k = k0; k < k1; ++k) {
        const double av = arow[k];
        if (av == 0.0) continue;
        const double* brow = bd + static_cast<size_t>(k) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace lsched
