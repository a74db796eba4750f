#ifndef LSCHED_NN_INFERENCE_H_
#define LSCHED_NN_INFERENCE_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "util/logging.h"

namespace lsched {

/// Reusable pool of Matrix buffers for the tape-free serving path: one
/// arena per agent, Reset() per decision, Alloc() per intermediate. Alloc
/// reuses the i-th buffer of the previous decision (same network, same
/// shapes → allocation-free steady state). Pointers stay valid until the
/// arena is destroyed.
class ScratchArena {
 public:
  /// Zero-initialized (rows x cols) buffer owned by the arena.
  Matrix* Alloc(int rows, int cols) {
    if (next_ == pool_.size()) {
      pool_.push_back(std::make_unique<Matrix>());
    }
    Matrix* m = pool_[next_++].get();
    m->Resize(rows, cols);
    return m;
  }

  /// Makes every buffer reusable again (values are NOT cleared until the
  /// buffer is re-Alloc'd).
  void Reset() { next_ = 0; }

  size_t capacity() const { return pool_.size(); }

 private:
  std::vector<std::unique_ptr<Matrix>> pool_;
  size_t next_ = 0;
};

/// Inference-only kernels mirroring the Tape ops bit-for-bit (identical
/// loop order and accumulation order), so serving scores match training
/// forward passes exactly. None of these construct Tape nodes or closures.

/// m[r, :] += row[0, :] for every row (the Linear bias broadcast).
void AddRowBroadcastInPlace(Matrix* m, const Matrix& row);

void ReluInPlace(Matrix* m);

/// out = x @ W + b for a Linear layer (batched over x's rows). The product
/// is MatMulBlockedInto, the kernel the Tape uses; per output element it
/// accumulates over k in ascending order, so batching rows into one call is
/// bit-identical to per-row calls.
void LinearForwardInto(const Linear& layer, const Matrix& x, Matrix* out);

/// Full Mlp forward (batched over x's rows); intermediates come from
/// `arena`. Returns the arena buffer holding the output.
Matrix* MlpForward(const Mlp& mlp, const Matrix& x, ScratchArena* arena);

/// The indices of the set flags, ascending.
void FlaggedRows(const std::vector<char>& flags, std::vector<int>* rows);

/// `src`'s `rows` as a compact arena matrix (`src` itself when `rows` is
/// every row, in order).
const Matrix& GatherRows(const Matrix& src, const std::vector<int>& rows,
                         ScratchArena* arena);

/// Writes compact row r of `src` to row rows[r] of `dst`.
void ScatterRows(const Matrix& src, const std::vector<int>& rows,
                 Matrix* dst);

/// The tape's SumRows: zeros plus every row in order, into a (1 x cols)
/// `out`.
void SumRowsInto(const Matrix& m, Matrix* out);

/// Row-wise log-softmax in place: each row shifted by its own LogSumExp.
/// Tape::LogSoftmaxRows computes its forward with this routine.
void LogSoftmaxRowsInPlace(Matrix* m);

/// Index of the first maximum of v[0..n) (greedy action selection).
int ArgmaxSpan(const double* v, int n);

/// Numbers the groups of `items` that share a key: (*row)[i] is the index
/// of item i's group, and the groups must be consecutive runs in ascending
/// key order. Returns the number of groups. The learned policies run their
/// parallelism heads once per query this way, over candidates grouped by
/// query.
template <typename T, typename KeyFn>
int GroupRows(const std::vector<T>& items, KeyFn key, std::vector<int>* row) {
  row->resize(items.size());
  int groups = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i == 0 || key(items[i]) != key(items[i - 1])) {
      LSCHED_CHECK(i == 0 || key(items[i]) > key(items[i - 1]))
          << "items are not grouped by key";
      ++groups;
    }
    (*row)[i] = groups - 1;
  }
  return groups;
}

}  // namespace lsched

#endif  // LSCHED_NN_INFERENCE_H_
