#ifndef LSCHED_NN_AUTOGRAD_H_
#define LSCHED_NN_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "nn/params.h"
#include "nn/tensor.h"

namespace lsched {

class Tape;

/// Lightweight handle to a node on a Tape. Copyable; valid while the Tape
/// lives.
class Var {
 public:
  Var() = default;
  Var(Tape* tape, int id) : tape_(tape), id_(id) {}

  bool valid() const { return tape_ != nullptr && id_ >= 0; }
  int id() const { return id_; }
  Tape* tape() const { return tape_; }

  const Matrix& value() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

 private:
  Tape* tape_ = nullptr;
  int id_ = -1;
};

/// Dynamic reverse-mode autodiff tape. The trainer builds one Tape per few
/// replayed decisions. Differentiating a scalar output takes two steps:
/// Sweep() runs the reverse pass and writes gradients into tape-owned
/// buffers only, and AddGradsToParams() then adds each Leaf(Param*) node's
/// gradient into its `param->grad`. Backward() is the two in a row. Because
/// a sweep never writes a Param, tapes of independent losses can be swept
/// on different threads while the parameter values stay read-only; the
/// caller then adds their gradients in a fixed order (nn/replay.h). Each
/// tape is swept at most once, and a tape must not span an optimizer step:
/// its leaves hold copies of the parameter values taken at first use.
///
/// The tape is lean: a node's grad is allocated at its first write, a node
/// computed only from constants needs none (so nothing writes one into it),
/// a node whose grad was never written does not run its backward, and the
/// sweep frees every value and every non-leaf grad it has passed (the
/// output's value stays readable). Only leaf grads survive a sweep.
///
/// Broadcasting: binary elementwise ops (Add/Mul) accept a right operand
/// that is (1 x d) against (n x d), or (1 x 1) against anything; the
/// gradient is sum-reduced accordingly.
class Tape {
 public:
  Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Process-wide count of Tape constructions. The serving fast path must
  /// never build a tape; tests assert this stays flat across an
  /// inference-only episode (also exported as the "nn.tape_constructions"
  /// gauge when observability is on).
  static int64_t num_constructed();

  /// --- graph inputs -----------------------------------------------------
  Var Constant(Matrix value);                 ///< no gradient tracked
  /// Parameter leaf. One node per parameter per tape: later calls return
  /// the same node, so every use accumulates into one grad that
  /// AddGradsToParams adds into `param->grad` once.
  Var Leaf(Param* param);

  /// Node with a caller-written backward. `value` is the forward result the
  /// caller computed from its input Vars' values. During the sweep,
  /// `backward(tape, out)` runs once if `out` received a gradient, reads
  /// `grad(out)` and adds each input's share into `mutable_grad(input)`.
  /// Inputs must be Vars created on this tape before the call.
  Var Custom(Matrix value, std::function<void(Tape*, Var)> backward);

  /// --- elementwise / linear algebra --------------------------------------
  Var MatMul(Var a, Var b);
  Var Add(Var a, Var b);        ///< supports (n x d)+(1 x d), +(1 x 1)
  Var Mul(Var a, Var b);        ///< Hadamard; same broadcasting as Add
  Var Scale(Var a, double c);

  /// --- nonlinearities -----------------------------------------------------
  Var Relu(Var a);
  Var Exp(Var a);

  /// --- shape ops ----------------------------------------------------------
  Var ConcatCols(const std::vector<Var>& parts);  ///< equal row counts
  Var ConcatRows(const std::vector<Var>& parts);  ///< equal col counts
  Var SliceRow(Var a, int row);                   ///< (n x d) -> (1 x d)
  /// Columns [begin, begin + count) of every row: (n x d) -> (n x count).
  Var SliceCols(Var a, int begin, int count);
  Var Transpose(Var a);                           ///< (n x d) -> (d x n)
  Var SumAll(Var a);                              ///< -> (1 x 1)
  Var SumRows(Var a);                             ///< (n x d) -> (1 x d)

  /// --- softmax / losses ----------------------------------------------------
  /// Log-softmax of every row; the forward is LogSoftmaxRowsInPlace.
  Var LogSoftmaxRows(Var a);
  /// Element (row, col) as (1 x 1).
  Var Pick(Var a, int row, int col);

  /// Reverse pass from scalar (1 x 1) node `output`, seeding its grad with
  /// `seed`. Writes tape-owned grads only; see the class comment for what
  /// it frees.
  void Sweep(Var output, double seed = 1.0);
  /// Adds every leaf's grad into its `param->grad` (the only write to a
  /// Param). Call once, after Sweep.
  void AddGradsToParams();
  /// Sweep followed by AddGradsToParams.
  void Backward(Var output, double seed = 1.0);

  const Matrix& value(int id) const { return nodes_[id].value; }
  /// Empty until the node's first gradient write.
  const Matrix& grad(int id) const { return nodes_[id].grad; }
  /// The grad of `v`, allocated as zeros on first use.
  Matrix& mutable_grad(Var v) { return grad_ref(v.id()); }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  using BackwardFn = std::function<void(Tape*, int id)>;

  struct Node {
    Matrix value;
    Matrix grad;          ///< empty until the first write
    BackwardFn backward;  ///< empty for leaves and constants
    Param* param = nullptr;
    /// A leaf, or computed from one: gradients written into any other
    /// node would never reach a parameter.
    bool needs_grad = false;
  };

  int NewNode(Matrix value, bool needs_grad);
  /// Adds an op node over `inputs`. It needs a grad iff an input does; only
  /// then is `backward` kept.
  Var Op(Matrix value, std::initializer_list<int> inputs, BackwardFn backward);
  Matrix& grad_ref(int id);
  /// The grad to add an input's share into, or null when the input needs
  /// none.
  Matrix* sink(int id) {
    return nodes_[id].needs_grad ? &grad_ref(id) : nullptr;
  }

  /// Accumulates `delta` (shaped like the op output) into `target` grad of
  /// shape `shape`, sum-reducing when `target` was broadcast.
  static void AccumulateWithBroadcast(Matrix* target_grad,
                                      const Matrix& delta);

  std::vector<Node> nodes_;
  std::unordered_map<const Param*, int> leaves_;  ///< param -> its leaf
};

}  // namespace lsched

#endif  // LSCHED_NN_AUTOGRAD_H_
