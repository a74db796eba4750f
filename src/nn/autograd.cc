#include "nn/autograd.h"

#include <atomic>
#include <cmath>

#include "nn/gemm.h"
#include "nn/inference.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace lsched {

namespace {
std::atomic<int64_t> g_tapes_constructed{0};
}  // namespace

Tape::Tape() {
  const int64_t n =
      g_tapes_constructed.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::Enabled()) {
    // Cached once: registry lookups are mutex-guarded.
    static obs::Gauge* gauge =
        obs::MetricsRegistry::Global().GetGauge("nn.tape_constructions");
    gauge->Set(static_cast<double>(n));
  }
}

int64_t Tape::num_constructed() {
  return g_tapes_constructed.load(std::memory_order_relaxed);
}

const Matrix& Var::value() const { return tape_->value(id_); }

int Tape::NewNode(Matrix value, bool needs_grad) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

Var Tape::Op(Matrix value, std::initializer_list<int> inputs,
             BackwardFn backward) {
  bool needs_grad = false;
  for (int input : inputs) needs_grad = needs_grad || nodes_[input].needs_grad;
  const int id = NewNode(std::move(value), needs_grad);
  if (needs_grad) nodes_[id].backward = std::move(backward);
  return Var(this, id);
}

Matrix& Tape::grad_ref(int id) {
  Node& n = nodes_[id];
  if (n.grad.empty()) n.grad = Matrix(n.value.rows(), n.value.cols(), 0.0);
  return n.grad;
}

void Tape::AccumulateWithBroadcast(Matrix* target_grad, const Matrix& delta) {
  Matrix& t = *target_grad;
  if (t.SameShape(delta)) {
    t.AddInPlace(delta);
    return;
  }
  if (t.rows() == 1 && t.cols() == 1) {
    double s = 0.0;
    for (double v : delta.raw()) s += v;
    t.at(0, 0) += s;
    return;
  }
  if (t.rows() == 1 && t.cols() == delta.cols()) {
    for (int r = 0; r < delta.rows(); ++r) {
      for (int c = 0; c < delta.cols(); ++c) t.at(0, c) += delta.at(r, c);
    }
    return;
  }
  LSCHED_CHECK(false) << "incompatible broadcast grad shapes";
}

namespace {
/// Expands broadcasting: returns value of `m` at (r, c) treating (1 x d)
/// and (1 x 1) shapes as broadcast against an (n x d) partner.
inline double BroadcastAt(const Matrix& m, int r, int c) {
  const int rr = m.rows() == 1 ? 0 : r;
  const int cc = m.cols() == 1 ? 0 : c;
  return m.at(rr, cc);
}

inline bool BroadcastCompatible(const Matrix& a, const Matrix& b) {
  if (a.SameShape(b)) return true;
  if (b.rows() == 1 && b.cols() == 1) return true;
  if (b.rows() == 1 && b.cols() == a.cols()) return true;
  return false;
}
}  // namespace

Var Tape::Constant(Matrix value) {
  return Var(this, NewNode(std::move(value), false));
}

Var Tape::Leaf(Param* param) {
  auto [it, inserted] = leaves_.try_emplace(param, 0);
  if (!inserted) return Var(this, it->second);
  // Frozen params get a grad too; the optimizer is what skips them.
  const int id = NewNode(param->value, true);
  it->second = id;
  nodes_[id].param = param;
  return Var(this, id);
}

Var Tape::Custom(Matrix value, std::function<void(Tape*, Var)> backward) {
  // The tape does not see a custom node's inputs, so it always takes a grad.
  const int id = NewNode(std::move(value), true);
  nodes_[id].backward = [fn = std::move(backward)](Tape* t, int self) {
    fn(t, Var(t, self));
  };
  return Var(this, id);
}

Var Tape::MatMul(Var a, Var b) {
  // Forward and both backward products use the blocked kernel, the same
  // one the tape-free serving path calls, so serving scores match training
  // bit-for-bit.
  Matrix out;
  MatMulBlockedInto(a.value(), b.value(), &out);
  const int ia = a.id(), ib = b.id();
  return Op(std::move(out), {ia, ib}, [ia, ib](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    Matrix prod;
    if (Matrix* ga = t->sink(ia)) {
      MatMulBlockedInto(g, t->nodes_[ib].value.Transposed(), &prod);
      ga->AddInPlace(prod);
    }
    if (Matrix* gb = t->sink(ib)) {
      MatMulBlockedInto(t->nodes_[ia].value.Transposed(), g, &prod);
      gb->AddInPlace(prod);
    }
  });
}

Var Tape::Add(Var a, Var b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  LSCHED_CHECK(BroadcastCompatible(av, bv)) << "Add shape mismatch";
  Matrix out(av.rows(), av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) {
      out.at(r, c) = av.at(r, c) + BroadcastAt(bv, r, c);
    }
  }
  const int ia = a.id(), ib = b.id();
  return Op(std::move(out), {ia, ib}, [ia, ib](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    if (Matrix* ga = t->sink(ia)) AccumulateWithBroadcast(ga, g);
    if (Matrix* gb = t->sink(ib)) AccumulateWithBroadcast(gb, g);
  });
}

Var Tape::Mul(Var a, Var b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  LSCHED_CHECK(BroadcastCompatible(av, bv)) << "Mul shape mismatch";
  Matrix out(av.rows(), av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) {
      out.at(r, c) = av.at(r, c) * BroadcastAt(bv, r, c);
    }
  }
  const int ia = a.id(), ib = b.id();
  return Op(std::move(out), {ia, ib}, [ia, ib](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    const Matrix& av2 = t->nodes_[ia].value;
    const Matrix& bv2 = t->nodes_[ib].value;
    if (Matrix* ga = t->sink(ia)) {
      Matrix da(av2.rows(), av2.cols());
      for (int r = 0; r < av2.rows(); ++r) {
        for (int c = 0; c < av2.cols(); ++c) {
          da.at(r, c) = g.at(r, c) * BroadcastAt(bv2, r, c);
        }
      }
      ga->AddInPlace(da);
    }
    if (Matrix* gb = t->sink(ib)) {
      Matrix db_full(av2.rows(), av2.cols());
      for (int r = 0; r < av2.rows(); ++r) {
        for (int c = 0; c < av2.cols(); ++c) {
          db_full.at(r, c) = g.at(r, c) * av2.at(r, c);
        }
      }
      AccumulateWithBroadcast(gb, db_full);
    }
  });
}

Var Tape::Scale(Var a, double c) {
  Matrix out = a.value();
  for (double& v : out.raw()) v *= c;
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia, c](Tape* t, int id) {
    t->grad_ref(ia).AddScaled(t->nodes_[id].grad, c);
  });
}

namespace {
/// Adds `f(i)` to every element of `target`, for the elementwise ops'
/// backward.
template <typename F>
void AddElementwise(Matrix* target, F f) {
  Matrix d(target->rows(), target->cols());
  for (size_t i = 0; i < d.raw().size(); ++i) d.raw()[i] = f(i);
  target->AddInPlace(d);
}
}  // namespace

Var Tape::Relu(Var a) {
  Matrix out = a.value();
  for (double& v : out.raw()) v = v > 0.0 ? v : 0.0;
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    const Matrix& av = t->nodes_[ia].value;
    AddElementwise(&t->grad_ref(ia), [&](size_t i) {
      return av.raw()[i] > 0.0 ? g.raw()[i] : 0.0;
    });
  });
}

Var Tape::Exp(Var a) {
  Matrix out = a.value();
  for (double& v : out.raw()) v = std::exp(v);
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    const Matrix& ov = t->nodes_[id].value;
    AddElementwise(&t->grad_ref(ia),
                   [&](size_t i) { return g.raw()[i] * ov.raw()[i]; });
  });
}

Var Tape::ConcatCols(const std::vector<Var>& parts) {
  LSCHED_CHECK(!parts.empty());
  const int rows = parts[0].value().rows();
  int cols = 0;
  bool needs_grad = false;
  for (const Var& p : parts) {
    LSCHED_CHECK(p.value().rows() == rows) << "ConcatCols row mismatch";
    cols += p.value().cols();
    needs_grad = needs_grad || nodes_[p.id()].needs_grad;
  }
  Matrix out(rows, cols);
  int offset = 0;
  for (const Var& p : parts) {
    const Matrix& v = p.value();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < v.cols(); ++c) out.at(r, offset + c) = v.at(r, c);
    }
    offset += v.cols();
  }
  const int id = NewNode(std::move(out), needs_grad);
  if (!needs_grad) return Var(this, id);
  std::vector<int> ids;
  ids.reserve(parts.size());
  for (const Var& p : parts) ids.push_back(p.id());
  nodes_[id].backward = [ids](Tape* t, int self) {
    const Matrix& g = t->nodes_[self].grad;
    int off = 0;
    for (int pid : ids) {
      const int cols = t->nodes_[pid].value.cols();
      if (Matrix* pg = t->sink(pid)) {
        for (int r = 0; r < pg->rows(); ++r) {
          for (int c = 0; c < cols; ++c) pg->at(r, c) += g.at(r, off + c);
        }
      }
      off += cols;
    }
  };
  return Var(this, id);
}

Var Tape::ConcatRows(const std::vector<Var>& parts) {
  LSCHED_CHECK(!parts.empty());
  const int cols = parts[0].value().cols();
  int rows = 0;
  bool needs_grad = false;
  for (const Var& p : parts) {
    LSCHED_CHECK(p.value().cols() == cols) << "ConcatRows col mismatch";
    rows += p.value().rows();
    needs_grad = needs_grad || nodes_[p.id()].needs_grad;
  }
  Matrix out(rows, cols);
  int offset = 0;
  for (const Var& p : parts) {
    const Matrix& v = p.value();
    for (int r = 0; r < v.rows(); ++r) {
      for (int c = 0; c < cols; ++c) out.at(offset + r, c) = v.at(r, c);
    }
    offset += v.rows();
  }
  const int id = NewNode(std::move(out), needs_grad);
  if (!needs_grad) return Var(this, id);
  std::vector<int> ids;
  ids.reserve(parts.size());
  for (const Var& p : parts) ids.push_back(p.id());
  nodes_[id].backward = [ids](Tape* t, int self) {
    const Matrix& g = t->nodes_[self].grad;
    int off = 0;
    for (int pid : ids) {
      const int rows = t->nodes_[pid].value.rows();
      if (Matrix* pg = t->sink(pid)) {
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < pg->cols(); ++c) pg->at(r, c) += g.at(off + r, c);
        }
      }
      off += rows;
    }
  };
  return Var(this, id);
}

Var Tape::SliceRow(Var a, int row) {
  const Matrix& av = a.value();
  Matrix out(1, av.cols());
  for (int c = 0; c < av.cols(); ++c) out.at(0, c) = av.at(row, c);
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia, row](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    Matrix& pg = t->grad_ref(ia);
    for (int c = 0; c < g.cols(); ++c) pg.at(row, c) += g.at(0, c);
  });
}

Var Tape::SliceCols(Var a, int begin, int count) {
  const Matrix& av = a.value();
  LSCHED_CHECK(begin >= 0 && count >= 0 && begin + count <= av.cols());
  Matrix out(av.rows(), count);
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < count; ++c) out.at(r, c) = av.at(r, begin + c);
  }
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia, begin](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    Matrix& pg = t->grad_ref(ia);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) pg.at(r, begin + c) += g.at(r, c);
    }
  });
}

Var Tape::Transpose(Var a) {
  const int ia = a.id();
  return Op(a.value().Transposed(), {ia}, [ia](Tape* t, int id) {
    t->grad_ref(ia).AddInPlace(t->nodes_[id].grad.Transposed());
  });
}

Var Tape::SumAll(Var a) {
  double s = 0.0;
  for (double v : a.value().raw()) s += v;
  Matrix out(1, 1);
  out.at(0, 0) = s;
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia](Tape* t, int id) {
    const double g = t->nodes_[id].grad.at(0, 0);
    for (double& v : t->grad_ref(ia).raw()) v += g;
  });
}

Var Tape::SumRows(Var a) {
  const Matrix& av = a.value();
  Matrix out(1, av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) out.at(0, c) += av.at(r, c);
  }
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    Matrix& pg = t->grad_ref(ia);
    for (int r = 0; r < pg.rows(); ++r) {
      for (int c = 0; c < pg.cols(); ++c) pg.at(r, c) += g.at(0, c);
    }
  });
}

Var Tape::LogSoftmaxRows(Var a) {
  Matrix out = a.value();
  LogSoftmaxRowsInPlace(&out);
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia](Tape* t, int id) {
    const Matrix& g = t->nodes_[id].grad;
    const Matrix& ov = t->nodes_[id].value;  // log-probs
    Matrix& pg = t->grad_ref(ia);
    for (int r = 0; r < g.rows(); ++r) {
      double gsum = 0.0;
      for (int c = 0; c < g.cols(); ++c) gsum += g.at(r, c);
      for (int c = 0; c < g.cols(); ++c) {
        pg.at(r, c) += g.at(r, c) - std::exp(ov.at(r, c)) * gsum;
      }
    }
  });
}

Var Tape::Pick(Var a, int row, int col) {
  const Matrix& av = a.value();
  LSCHED_CHECK(row >= 0 && row < av.rows() && col >= 0 && col < av.cols());
  Matrix out(1, 1);
  out.at(0, 0) = av.at(row, col);
  const int ia = a.id();
  return Op(std::move(out), {ia}, [ia, row, col](Tape* t, int id) {
    t->grad_ref(ia).at(row, col) += t->nodes_[id].grad.at(0, 0);
  });
}

void Tape::Sweep(Var output, double seed) {
  LSCHED_CHECK(output.tape() == this);
  const int root = output.id();
  const Matrix& out = nodes_[root].value;
  LSCHED_CHECK(out.rows() == 1 && out.cols() == 1)
      << "Sweep expects a scalar output";
  Matrix* root_grad = sink(root);
  if (root_grad == nullptr) return;  // no parameter below the output
  root_grad->at(0, 0) += seed;
  for (int i = root; i >= 0; --i) {
    Node& n = nodes_[i];
    if (n.backward && !n.grad.empty()) n.backward(this, i);
    if (i == root) continue;
    // Nodes below i never read i's value or grad: free both, keeping leaf
    // grads for AddGradsToParams.
    n.value = Matrix();
    n.backward = nullptr;
    if (n.param == nullptr) n.grad = Matrix();
  }
}

void Tape::AddGradsToParams() {
  for (const Node& n : nodes_) {
    if (n.param != nullptr && !n.grad.empty()) n.param->grad.AddInPlace(n.grad);
  }
}

void Tape::Backward(Var output, double seed) {
  Sweep(output, seed);
  AddGradsToParams();
}

}  // namespace lsched
