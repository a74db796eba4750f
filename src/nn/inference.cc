#include "nn/inference.h"

#include "nn/gemm.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

void AddRowBroadcastInPlace(Matrix* m, const Matrix& row) {
  LSCHED_CHECK(row.rows() == 1 && row.cols() == m->cols());
  for (int r = 0; r < m->rows(); ++r) {
    double* mrow = m->data() + static_cast<size_t>(r) * m->cols();
    const double* b = row.data();
    for (int c = 0; c < m->cols(); ++c) mrow[c] += b[c];
  }
}

void ReluInPlace(Matrix* m) {
  for (double& v : m->raw()) v = v > 0.0 ? v : 0.0;
}

void LinearForwardInto(const Linear& layer, const Matrix& x, Matrix* out) {
  MatMulBlockedInto(x, layer.weight()->value, out);
  AddRowBroadcastInPlace(out, layer.bias()->value);
}

Matrix* MlpForward(const Mlp& mlp, const Matrix& x, ScratchArena* arena) {
  const std::vector<Linear>& layers = mlp.layers();
  LSCHED_CHECK(!layers.empty());
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < layers.size(); ++i) {
    out = arena->Alloc(h->rows(), layers[i].out_dim());
    LinearForwardInto(layers[i], *h, out);
    if (i + 1 < layers.size()) ReluInPlace(out);
    h = out;
  }
  return out;
}

void LogSoftmaxRowsInPlace(Matrix* m) {
  for (int r = 0; r < m->rows(); ++r) {
    double* row = m->data() + static_cast<size_t>(r) * m->cols();
    const double lse = LogSumExp(row, static_cast<size_t>(m->cols()));
    for (int c = 0; c < m->cols(); ++c) row[c] -= lse;
  }
}

int ArgmaxSpan(const double* v, int n) {
  int best = 0;
  for (int c = 1; c < n; ++c) {
    if (v[c] > v[best]) best = c;
  }
  return best;
}

}  // namespace lsched
