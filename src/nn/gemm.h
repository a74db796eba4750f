#ifndef LSCHED_NN_GEMM_H_
#define LSCHED_NN_GEMM_H_

#include "nn/tensor.h"

namespace lsched {

/// out = a * b with the cache-blocked kernel: k-panel + 4-row register
/// blocking over contiguous row-major panels; each B-row load is reused
/// across four accumulator rows and the dense inner j-loop auto-vectorizes
/// over the 64-byte-aligned storage. Zero A entries are skipped and each
/// output element accumulates its k-terms in ascending order, so results
/// match the textbook i-k-j loop (gemm_test keeps it as the oracle).
void MatMulBlockedInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Process-wide GEMM entry point. All nn matrix products — the autograd
/// tape, the tape-free serving fast path, and training — route through it,
/// so serving can never diverge from training.
class GemmBackend {
 public:
  static GemmBackend& Global();

  /// out = a * b (shapes checked; out resized and overwritten).
  void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) const {
    MatMulBlockedInto(a, b, out);
  }

  /// Convenience value-returning product.
  Matrix MatMul(const Matrix& a, const Matrix& b) const {
    Matrix out;
    MatMulInto(a, b, &out);
    return out;
  }

 private:
  GemmBackend() = default;
};

}  // namespace lsched

#endif  // LSCHED_NN_GEMM_H_
