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
/// Every nn matrix product — the autograd tape and the tape-free serving
/// path — calls this one kernel, so serving can never diverge from
/// training. Shapes are checked; `out` is resized and overwritten.
void MatMulBlockedInto(const Matrix& a, const Matrix& b, Matrix* out);

}  // namespace lsched

#endif  // LSCHED_NN_GEMM_H_
