#ifndef LSCHED_NN_MESSAGE_PASSING_H_
#define LSCHED_NN_MESSAGE_PASSING_H_

#include <array>
#include <vector>

#include "nn/autograd.h"
#include "nn/inference.h"

namespace lsched {

/// One sweep of sequential message passing over a DAG (Decima's GCN; the
/// "w/o triangle convolution" ablation, §4.2.1): in topological order,
///   out_i = relu(self(in_i) + sum over producer slots c of child(out_c)),
/// so a consumer reads its producers' new rows of the same sweep.
/// `producers[i]` holds node i's producers, -1 for an empty slot; child
/// terms are added in slot order. The serving encoders and the tape run
/// this routine. The self projections are one GEMM and each child term a
/// 1-row GEMM; MatMulBlockedInto sums each element's k-terms in ascending
/// order whatever the row count, so rows equal per-row Linear calls.
///
/// With null `flags`, `out` is resized and every row is written. Otherwise
/// `out` holds the previous sweep's rows and `flags` marks the input rows
/// that changed: a node is recomputed when its own flag is set or a
/// producer was recomputed, recomputing it sets its flag, and the other
/// rows of `out` are left as they are.
void MessagePassingForward(const Linear& self, const Linear& child,
                           const std::vector<int>& topo_order,
                           const std::vector<std::array<int, 2>>& producers,
                           const Matrix& in, std::vector<char>* flags,
                           ScratchArena* arena, Matrix* out);

/// One sweep as one tape node: MessagePassingForward over every row, and a
/// hand-written backward that walks the reverse topological order, so each
/// node's output gradient holds every consumer's share before it passes
/// through the node's ReLU. The backward reads `topo_order` and
/// `producers`, so both must outlive the tape's sweep.
Var MessagePassing(Tape* tape, const Linear& self, const Linear& child,
                   const std::vector<int>& topo_order,
                   const std::vector<std::array<int, 2>>& producers, Var in);

}  // namespace lsched

#endif  // LSCHED_NN_MESSAGE_PASSING_H_
