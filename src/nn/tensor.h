#ifndef LSCHED_NN_TENSOR_H_
#define LSCHED_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/rng.h"

namespace lsched {

/// STL allocator that hands out 64-byte-aligned storage (one cache line;
/// also the widest SIMD vector the toolchain may emit). Matrix keeps its
/// dense row-major layout — only the base pointer alignment changes — so
/// indexing, raw() iteration order, and the checkpoint byte format are
/// unchanged.
///
/// Alignment is done by over-allocating through plain `operator new` and
/// stashing the raw pointer just below the returned block, NOT via the
/// align_val_t overload: glibc's aligned path bypasses the thread-local
/// fastbin cache and costs ~3x per call, which the encoder's thousands of
/// small per-node matrices turn into a double-digit encode regression.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* raw = ::operator new(n * sizeof(T) + kAlignment + sizeof(void*));
    auto addr = reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
    addr = (addr + kAlignment - 1) & ~(kAlignment - 1);
    void* aligned = reinterpret_cast<void*>(addr);
    static_cast<void**>(aligned)[-1] = raw;
    return static_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(static_cast<void**>(static_cast<void*>(p))[-1]);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// 64-byte-aligned double storage backing Matrix.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

/// Dense row-major matrix of doubles. The only tensor rank the LSched
/// networks need: node/edge embeddings are row vectors (1 x d), batched
/// node sets are (n x d), weights are (in x out).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double init = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), init) {}

  /// Xavier/Glorot-style initialization: N(0, sqrt(2/(rows+cols))).
  static Matrix Xavier(int rows, int cols, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(int r, int c) { return data_[idx(r, c)]; }
  double at(int r, int c) const { return data_[idx(r, c)]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  AlignedVector& raw() { return data_; }
  const AlignedVector& raw() const { return data_; }

  void Fill(double v);
  void Zero() { Fill(0.0); }

  /// Reshapes to (rows x cols) and zero-fills, reusing the allocation when
  /// capacity suffices (scratch-arena reuse on the inference fast path).
  void Resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0);
  }

  /// this += other (same shape required).
  void AddInPlace(const Matrix& other);
  /// this += scale * other.
  void AddScaled(const Matrix& other, double scale);

  Matrix Transposed() const;

  /// Matrix product (rows x k) * (k x cols). Reference naive kernel kept
  /// for tests; hot paths (Tape + serving) call nn/gemm.h's
  /// MatMulBlockedInto instead.
  static Matrix MatMul(const Matrix& a, const Matrix& b);

  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  size_t idx(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
           static_cast<size_t>(c);
  }

  int rows_ = 0;
  int cols_ = 0;
  AlignedVector data_;
};

/// Row r of `m`'s row-major storage.
inline double* Row(Matrix* m, int r) {
  return m->data() + static_cast<size_t>(r) * static_cast<size_t>(m->cols());
}
inline const double* Row(const Matrix& m, int r) {
  return m.data() + static_cast<size_t>(r) * static_cast<size_t>(m.cols());
}

/// acc[0..n) += b[0..n) — the update Tape::Add makes on (1 x n) rows.
inline void AddRowInPlace(double* acc, const double* b, int n) {
  for (int j = 0; j < n; ++j) acc[j] += b[j];
}

}  // namespace lsched

#endif  // LSCHED_NN_TENSOR_H_
