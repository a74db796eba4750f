#include "nn/message_passing.h"

#include <algorithm>

#include "nn/gemm.h"
#include "util/logging.h"

namespace lsched {

void MessagePassingForward(const Linear& self, const Linear& child,
                           const std::vector<int>& topo_order,
                           const std::vector<std::array<int, 2>>& producers,
                           const Matrix& in, std::vector<char>* flags,
                           ScratchArena* arena, Matrix* out) {
  const int n = in.rows();
  const int d = self.out_dim();
  std::vector<char> every_row;
  if (flags == nullptr) {
    out->Resize(n, d);
    every_row.assign(static_cast<size_t>(n), 1);
    flags = &every_row;
  }
  LSCHED_CHECK(out->rows() == n && out->cols() == d &&
               flags->size() == static_cast<size_t>(n));
  std::vector<char>& dirty = *flags;
  for (int i : topo_order) {
    for (int c : producers[static_cast<size_t>(i)]) {
      if (c >= 0 && dirty[static_cast<size_t>(c)]) {
        dirty[static_cast<size_t>(i)] = 1;
      }
    }
  }

  // The self projections of the recomputed rows, one GEMM, go to their
  // output rows; the sweep adds the child terms and applies the ReLU.
  std::vector<int> rows;
  FlaggedRows(dirty, &rows);
  if (rows.empty()) return;
  Matrix* projected = arena->Alloc(0, 0);
  LinearForwardInto(self, GatherRows(in, rows, arena), projected);
  ScatterRows(*projected, rows, out);
  Matrix* row = arena->Alloc(1, d);
  Matrix* msg = arena->Alloc(1, d);
  for (int i : topo_order) {
    if (!dirty[static_cast<size_t>(i)]) continue;
    double* oi = Row(out, i);
    for (int c : producers[static_cast<size_t>(i)]) {
      if (c < 0) continue;
      std::copy(Row(*out, c), Row(*out, c) + d, row->data());
      LinearForwardInto(child, *row, msg);
      AddRowInPlace(oi, msg->data(), d);
    }
    for (int j = 0; j < d; ++j) oi[j] = oi[j] > 0.0 ? oi[j] : 0.0;
  }
}

Var MessagePassing(Tape* tape, const Linear& self, const Linear& child,
                   const std::vector<int>& topo_order,
                   const std::vector<std::array<int, 2>>& producers, Var in) {
  const Var self_w = self.WeightLeaf(tape);
  const Var self_b = self.BiasLeaf(tape);
  const Var child_w = child.WeightLeaf(tape);
  const Var child_b = child.BiasLeaf(tape);
  ScratchArena arena;
  Matrix value;
  MessagePassingForward(self, child, topo_order, producers, in.value(),
                        nullptr, &arena, &value);
  return tape->Custom(std::move(value), [&topo_order, &producers, in, self_w,
                                         self_b, child_w, child_b](Tape* t,
                                                                   Var o) {
    // The reverse topological order: when node i is reached, every consumer
    // has added its share of d(loss)/d(out_i) through the child layer.
    const Matrix& out = o.value();
    const int n = out.rows();
    const int d = out.cols();
    Matrix dout = t->grad(o.id());
    Matrix dh(n, d);    // through node i's ReLU
    Matrix dmsg(n, d);  // d(loss)/d(child(out_c)), summed over c's consumers
    const Matrix child_wt = child_w.value().Transposed();
    Matrix row(1, d);
    Matrix prod;
    for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
      const int i = *it;
      std::copy(Row(dmsg, i), Row(dmsg, i) + d, row.data());
      MatMulBlockedInto(row, child_wt, &prod);
      double* doi = Row(&dout, i);
      AddRowInPlace(doi, prod.data(), d);
      const double* oi = Row(out, i);
      double* dhi = Row(&dh, i);
      for (int j = 0; j < d; ++j) dhi[j] = oi[j] > 0.0 ? doi[j] : 0.0;
      for (int c : producers[static_cast<size_t>(i)]) {
        if (c >= 0) AddRowInPlace(Row(&dmsg, c), dhi, d);
      }
    }
    // The parts that need no order: one GEMM or row sum each over all rows.
    MatMulBlockedInto(dh, self_w.value().Transposed(), &prod);
    t->mutable_grad(in).AddInPlace(prod);
    MatMulBlockedInto(in.value().Transposed(), dh, &prod);
    t->mutable_grad(self_w).AddInPlace(prod);
    SumRowsInto(dh, &prod);
    t->mutable_grad(self_b).AddInPlace(prod);
    MatMulBlockedInto(out.Transposed(), dmsg, &prod);
    t->mutable_grad(child_w).AddInPlace(prod);
    SumRowsInto(dmsg, &prod);
    t->mutable_grad(child_b).AddInPlace(prod);
  });
}

}  // namespace lsched
