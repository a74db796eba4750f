#include "nn/inference.h"

#include <algorithm>

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

void FlaggedRows(const std::vector<char>& flags, std::vector<int>* rows) {
  rows->clear();
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) rows->push_back(static_cast<int>(i));
  }
}

const Matrix& GatherRows(const Matrix& src, const std::vector<int>& rows,
                         ScratchArena* arena) {
  if (static_cast<int>(rows.size()) == src.rows()) return src;  // all, in order
  Matrix* out = arena->Alloc(static_cast<int>(rows.size()), src.cols());
  for (size_t r = 0; r < rows.size(); ++r) {
    const double* from = Row(src, rows[r]);
    std::copy(from, from + src.cols(), Row(out, static_cast<int>(r)));
  }
  return *out;
}

void ScatterRows(const Matrix& src, const std::vector<int>& rows,
                 Matrix* dst) {
  for (size_t r = 0; r < rows.size(); ++r) {
    const double* from = Row(src, static_cast<int>(r));
    std::copy(from, from + src.cols(), Row(dst, rows[r]));
  }
}

void SumRowsInto(const Matrix& m, Matrix* out) {
  out->Resize(1, m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    AddRowInPlace(out->data(), Row(m, r), m.cols());
  }
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
