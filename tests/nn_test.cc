#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <vector>

#include "nn/autograd.h"
#include "nn/inference.h"
#include "nn/layers.h"
#include "nn/message_passing.h"
#include "nn/optimizer.h"
#include "nn/params.h"
#include "nn/tensor.h"

namespace lsched {
namespace {

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) a.at(r, c) = v++;
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) b.at(r, c) = v++;
  }
  const Matrix c = Matrix::MatMul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, Transpose) {
  Matrix a(2, 3);
  a.at(0, 2) = 5.0;
  const Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
}

/// Numerical gradient check: perturbs every element of every parameter and
/// compares (f(x+h)-f(x-h))/2h to the backprop gradient.
void GradCheck(ParameterStore* store,
               const std::function<double(Tape*, bool)>& forward,
               double tol = 1e-5) {
  // Analytic gradients.
  store->ZeroGrads();
  {
    Tape tape;
    forward(&tape, true);
  }
  const double h = 1e-6;
  for (Param* p : store->All()) {
    for (size_t i = 0; i < p->value.raw().size(); ++i) {
      const double orig = p->value.raw()[i];
      p->value.raw()[i] = orig + h;
      Tape t1;
      const double fp = forward(&t1, false);
      p->value.raw()[i] = orig - h;
      Tape t2;
      const double fm = forward(&t2, false);
      p->value.raw()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * h);
      const double analytic = p->grad.raw()[i];
      EXPECT_NEAR(analytic, numeric, tol)
          << "param " << p->name << " index " << i;
    }
  }
}

TEST(AutogradTest, GradCheckLinearChain) {
  ParameterStore store;
  Rng rng(5);
  Param* w = store.Create("w", 3, 4, &rng);
  Param* b = store.CreateZero("b", 1, 4);
  b->value.at(0, 1) = 0.3;
  Matrix x(2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) x.at(r, c) = 0.1 * (r + 1) * (c + 1);
  }
  auto forward = [&](Tape* tape, bool backward) {
    Var xv = tape->Constant(x);
    Var h = tape->Add(tape->MatMul(xv, tape->Leaf(w)), tape->Leaf(b));
    h = tape->Relu(h);
    Var loss = tape->SumAll(tape->Mul(h, h));
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
}

TEST(AutogradTest, GradCheckSoftmaxPick) {
  ParameterStore store;
  Rng rng(6);
  Param* w = store.Create("w", 4, 5, &rng);
  Matrix x(2, 4);
  for (int c = 0; c < 4; ++c) {
    x.at(0, c) = 0.3 * c - 0.5;
    x.at(1, c) = 0.2 - 0.4 * c;
  }
  auto forward = [&](Tape* tape, bool backward) {
    Var logits = tape->MatMul(tape->Constant(x), tape->Leaf(w));
    Var lp = tape->LogSoftmaxRows(logits);
    Var loss = tape->Scale(
        tape->Add(tape->Pick(lp, 0, 2), tape->Pick(lp, 1, 4)), -1.0);
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
}

TEST(AutogradTest, GradCheckConcatSliceTransposeExp) {
  ParameterStore store;
  Rng rng(7);
  Param* a = store.Create("a", 1, 3, &rng);
  Param* b = store.Create("b", 1, 2, &rng);
  auto forward = [&](Tape* tape, bool backward) {
    Var av = tape->Leaf(a);
    Var bv = tape->Leaf(b);
    Var cat = tape->ConcatCols({av, bv});                        // 1x5
    Var rows = tape->ConcatRows({cat, tape->Scale(cat, 2.0)});   // 2x5
    Var row1 = tape->SliceRow(rows, 1);                          // 1x5
    Var cols = tape->Transpose(tape->SliceCols(rows, 1, 3));     // 3x2
    Var e = tape->Exp(tape->Scale(row1, 0.5));
    Var shifted = tape->Add(e, tape->Constant(Matrix(1, 1, -1.0)));
    Var loss = tape->Add(tape->SumAll(tape->Relu(shifted)),
                         tape->SumAll(tape->Mul(cols, cols)));
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
}

TEST(AutogradTest, GradCheckBroadcastMulAndDot) {
  ParameterStore store;
  Rng rng(8);
  Param* w = store.Create("w", 1, 4, &rng);   // broadcast row
  Param* s = store.Create("s", 1, 1, &rng);   // broadcast scalar
  Matrix x(3, 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) x.at(r, c) = 0.2 * r - 0.1 * c + 0.05;
  }
  auto forward = [&](Tape* tape, bool backward) {
    Var xv = tape->Constant(x);
    Var h = tape->Mul(xv, tape->Leaf(w));     // (3x4) * (1x4)
    h = tape->Mul(h, tape->Leaf(s));          // (3x4) * (1x1)
    Var m = tape->SumRows(h);                 // 1x4
    Var loss = tape->SumAll(tape->Mul(m, tape->Leaf(w)));
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
}

TEST(AutogradTest, GradCheckBroadcastAddReluSumRows) {
  ParameterStore store;
  Rng rng(9);
  Param* w = store.Create("w", 2, 3, &rng);
  Param* b = store.Create("b", 1, 3, &rng);   // broadcast row
  Param* s = store.Create("s", 1, 1, &rng);   // broadcast scalar
  Matrix x(2, 2);
  x.at(0, 0) = 0.5;
  x.at(1, 1) = -0.25;
  auto forward = [&](Tape* tape, bool backward) {
    Var h = tape->MatMul(tape->Constant(x), tape->Leaf(w));
    h = tape->Add(tape->Add(h, tape->Leaf(b)), tape->Leaf(s));
    Var loss = tape->SumAll(tape->SumRows(tape->Relu(h)));
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
}

TEST(AutogradTest, LogSoftmaxIsNormalized) {
  Tape tape;
  Matrix logits(2, 4);
  logits.at(0, 0) = 5.0;
  logits.at(0, 3) = -2.0;
  logits.at(1, 1) = 40.0;
  Var lp = tape.LogSoftmaxRows(tape.Constant(logits));
  for (int r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 4; ++c) sum += std::exp(lp.value().at(r, c));
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AutogradTest, BackwardAccumulatesIntoParams) {
  ParameterStore store;
  Rng rng(10);
  Param* w = store.Create("w", 1, 1, &rng);
  w->value.at(0, 0) = 2.0;
  store.ZeroGrads();
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    Var loss = tape.Mul(tape.Leaf(w), tape.Leaf(w));  // w^2, d/dw = 2w = 4
    tape.Backward(loss);
  }
  EXPECT_NEAR(w->grad.at(0, 0), 12.0, 1e-12);  // 3 accumulated backward passes
}

TEST(AutogradTest, LeafIsOneNodePerParameterPerTape) {
  ParameterStore store;
  Rng rng(18);
  Linear lin(&store, "lin", 3, 2, &rng);
  store.ZeroGrads();
  Matrix x1(1, 3);
  Matrix x2(2, 3);
  for (int c = 0; c < 3; ++c) {
    x1.at(0, c) = 0.5 + c;
    x2.at(0, c) = -1.0 + c;
    x2.at(1, c) = 2.0 * c;
  }
  Tape tape;
  const Var y1 = lin.Forward(&tape, tape.Constant(x1));
  const size_t after_first = tape.num_nodes();
  const Var y2 = lin.Forward(&tape, tape.Constant(x2));
  // The second use adds its constant, MatMul and bias Add, but no leaves.
  EXPECT_EQ(tape.num_nodes() - after_first, 3u);
  Param* w = store.Find("lin/w");
  Param* b = store.Find("lin/b");
  EXPECT_EQ(tape.Leaf(w).id(), tape.Leaf(w).id());
  EXPECT_EQ(tape.num_nodes() - after_first, 3u);

  tape.Backward(tape.Add(tape.SumAll(y1), tape.SumAll(y2)));
  // d/dW of sum(x W + b) is the column sums of x, summed over both uses.
  for (int r = 0; r < 3; ++r) {
    const double expected = x1.at(0, r) + x2.at(0, r) + x2.at(1, r);
    for (int c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(w->grad.at(r, c), expected);
      EXPECT_DOUBLE_EQ(tape.grad(tape.Leaf(w).id()).at(r, c), expected);
    }
  }
  for (int c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(b->grad.at(0, c), 3.0);
}

TEST(AutogradTest, NodeWithoutGradientRunsNoBackwardAndHasNoGrad) {
  // Like a candidate head the action did not pick: built, never in the loss.
  ParameterStore store;
  Param* w = store.CreateZero("w", 1, 2);
  w->value.at(0, 0) = 1.5;
  w->value.at(0, 1) = -0.5;
  Tape tape;
  const Var x = tape.Leaf(w);
  bool unused_ran = false;
  const Var unused = tape.Custom(
      x.value(), [&unused_ran](Tape*, Var) { unused_ran = true; });
  // Runs before the sweep reaches `unused`, which is below it.
  bool unused_grad_empty = false;
  const Var probe = tape.Custom(
      Matrix(1, 1, 0.0), [&unused_grad_empty, unused](Tape* t, Var) {
        unused_grad_empty = t->grad(unused.id()).empty();
      });
  tape.Backward(tape.Add(tape.SumAll(tape.Mul(x, x)), probe));
  EXPECT_FALSE(unused_ran);
  EXPECT_TRUE(unused_grad_empty);
  EXPECT_DOUBLE_EQ(w->grad.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(w->grad.at(0, 1), -1.0);
}

TEST(AutogradTest, MatMulWritesNoGradIntoAConstant) {
  ParameterStore store;
  Rng rng(19);
  Param* w = store.Create("w", 3, 2, &rng);
  Matrix m(2, 3);
  for (int c = 0; c < 3; ++c) {
    m.at(0, c) = 0.5 + c;
    m.at(1, c) = -1.0 + c;
  }
  Tape tape;
  const Var constant = tape.Constant(m);
  // Its backward runs after MatMul's and before the sweep reaches
  // `constant`.
  bool constant_grad_empty = false;
  const Var probe = tape.Custom(
      Matrix(1, 1, 0.0), [&constant_grad_empty, constant](Tape* t, Var) {
        constant_grad_empty = t->grad(constant.id()).empty();
      });
  const Var y = tape.MatMul(constant, tape.Leaf(w));
  tape.Backward(tape.Add(tape.SumAll(y), probe));
  EXPECT_TRUE(constant_grad_empty);
  // d/dW of sum(m W) is the column sums of m.
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(w->grad.at(r, 0), m.at(0, r) + m.at(1, r));
  }
}

TEST(AutogradTest, SweepLeavesParamsUntilGradsAreAdded) {
  ParameterStore store;
  Param* w = store.CreateZero("w", 1, 1);
  w->value.at(0, 0) = 2.0;
  store.ZeroGrads();
  Tape tape;
  const Var x = tape.Leaf(w);
  const Var loss = tape.Mul(x, x);
  tape.Sweep(loss);
  EXPECT_EQ(w->grad.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(tape.grad(x.id()).at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(loss.value().at(0, 0), 4.0);  // the output stays readable
  tape.AddGradsToParams();
  EXPECT_DOUBLE_EQ(w->grad.at(0, 0), 4.0);
}

/// A 5-node DAG, producers first in a non-identity order: 0 and 1 are
/// leaves, 2 reads (0, 1), 3 reads 0 and 4 reads 3. Node 0 feeds two
/// consumers and node 2 has two producers.
struct SweepDag {
  std::vector<std::array<int, 2>> producers = {
      {-1, -1}, {-1, -1}, {0, 1}, {0, -1}, {3, -1}};
  std::vector<int> topo_order = {1, 0, 3, 2, 4};
};

Matrix RowsOf(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(static_cast<int>(rows.size()),
           static_cast<int>(rows.begin()->size()));
  int r = 0;
  for (const auto& row : rows) {
    std::copy(row.begin(), row.end(), Row(&m, r++));
  }
  return m;
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool RowBytesEqual(const Matrix& a, const Matrix& b, int r) {
  return std::memcmp(Row(a, r), Row(b, r),
                     static_cast<size_t>(a.cols()) * sizeof(double)) == 0;
}

/// self(x) = x + [0, -1]; child(x) = swap(x) + [1, 0].
struct SweepLayers {
  ParameterStore store;
  Rng rng{1};
  Linear self{&store, "self", 2, 2, &rng};
  Linear child{&store, "child", 2, 2, &rng};
  SweepLayers() {
    store.Find("self/w")->value = RowsOf({{1, 0}, {0, 1}});
    store.Find("self/b")->value = RowsOf({{0, -1}});
    store.Find("child/w")->value = RowsOf({{0, 1}, {1, 0}});
    store.Find("child/b")->value = RowsOf({{1, 0}});
  }
  Matrix Sweep(const SweepDag& dag, const Matrix& in) {
    Matrix out;
    MessagePassingForward(self, child, dag.topo_order, dag.producers, in,
                          nullptr, &arena, &out);
    return out;
  }
  ScratchArena arena;
};

TEST(MessagePassingTest, SelfReadsTheInputRowAndConsumersTheNewRows) {
  const SweepDag dag;
  SweepLayers layers;
  const Matrix in = RowsOf({{1, 2}, {3, -1}, {0, 1}, {2, 2}, {-1, 0}});
  // out0 = relu([1, 1]); out1 = relu([3, -2]); out2 = relu([0, 0] +
  // child(out0) [2, 1] + child(out1) [1, 3]); out3 = relu([2, 1] + [2, 1]);
  // out4 = relu([-1, -1] + child(out3) [3, 4]). Reading node 3's input row
  // instead of its new row would give out4 = [2, 1].
  const Matrix once = layers.Sweep(dag, in);
  EXPECT_TRUE(BytesEqual(
      once, RowsOf({{1, 1}, {3, 0}, {3, 4}, {4, 2}, {2, 3}})));
  const Matrix twice = layers.Sweep(dag, once);
  EXPECT_TRUE(BytesEqual(
      twice, RowsOf({{1, 0}, {3, 0}, {5, 7}, {5, 2}, {5, 7}})));
}

TEST(MessagePassingTest, FlagsRecomputeOnlyTheRowsAChangedRowReaches) {
  const SweepDag dag;
  SweepLayers layers;
  Matrix in = RowsOf({{1, 2}, {3, -1}, {0, 1}, {2, 2}, {-1, 0}});
  const Matrix once = layers.Sweep(dag, in);
  const Matrix twice = layers.Sweep(dag, once);

  // Leaf 1's input row changes. Rows 3 and 4 are poisoned: nothing
  // recomputed reads them, so they must keep their bytes.
  in.at(1, 0) = 1.0;
  in.at(1, 1) = 5.0;
  const Matrix fresh_once = layers.Sweep(dag, in);
  const Matrix fresh_twice = layers.Sweep(dag, fresh_once);
  const auto poison = [](Matrix m) {
    for (int r : {3, 4}) std::fill_n(Row(&m, r), m.cols(), 42.0);
    return m;
  };
  std::vector<char> flags = {0, 1, 0, 0, 0};
  Matrix out1 = poison(once);
  MessagePassingForward(layers.self, layers.child, dag.topo_order,
                        dag.producers, in, &flags, &layers.arena, &out1);
  EXPECT_EQ(flags, (std::vector<char>{0, 1, 1, 0, 0}));
  // out1 = relu([1, 4]); out2 = relu([0, 0] + [2, 1] + child(out1) [5, 1]).
  EXPECT_TRUE(BytesEqual(
      out1, poison(RowsOf({{1, 1}, {1, 4}, {7, 2}, {0, 0}, {0, 0}}))));
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(RowBytesEqual(out1, fresh_once, r));

  // The second iteration carries the flags on.
  Matrix out2 = poison(twice);
  MessagePassingForward(layers.self, layers.child, dag.topo_order,
                        dag.producers, out1, &flags, &layers.arena, &out2);
  EXPECT_EQ(flags, (std::vector<char>{0, 1, 1, 0, 0}));
  EXPECT_TRUE(RowBytesEqual(out2, poison(twice), 3));
  EXPECT_TRUE(RowBytesEqual(out2, poison(twice), 4));
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(RowBytesEqual(out2, fresh_twice, r));

  // No flag set: nothing is written.
  std::vector<char> clean(5, 0);
  Matrix untouched = poison(twice);
  MessagePassingForward(layers.self, layers.child, dag.topo_order,
                        dag.producers, in, &clean, &layers.arena, &untouched);
  EXPECT_TRUE(BytesEqual(untouched, poison(twice)));
}

TEST(MessagePassingTest, GradCheckTwoSweepsThroughInputsAndAllFourParams) {
  const SweepDag dag;
  ParameterStore store;
  Rng rng(21);
  Param* x = store.Create("x", 5, 3, &rng);
  const Linear self(&store, "self", 3, 3, &rng);
  const Linear child(&store, "child", 3, 3, &rng);
  // Positive inputs, weights and biases keep the consumers active, so
  // gradients flow through both of node 0's consumers; a negative self
  // bias keeps the leaves' last unit below zero, so the ReLU masks too.
  for (double& v : x->value.raw()) v = std::fabs(v) + 0.1;
  for (const char* name : {"self/w", "child/w"}) {
    for (double& v : store.Find(name)->value.raw()) v = std::fabs(v);
  }
  for (const char* name : {"self/b", "child/b"}) {
    for (double& v : store.Find(name)->value.raw()) {
      v = 0.2 + 0.1 * rng.Normal(0.0, 1.0);
    }
  }
  store.Find("self/b")->value.at(0, 2) = -2.0;
  const Matrix weights = Matrix::Xavier(5, 3, &rng);
  size_t nodes = 0;
  auto forward = [&](Tape* tape, bool backward) {
    Var h = tape->Leaf(x);
    for (int it = 0; it < 2; ++it) {
      h = MessagePassing(tape, self, child, dag.topo_order, dag.producers, h);
    }
    Var loss = tape->SumAll(tape->Mul(h, tape->Constant(weights)));
    nodes = tape->num_nodes();
    if (backward) tape->Backward(loss);
    return loss.value().at(0, 0);
  };
  GradCheck(&store, forward);
  // One node per sweep: x, four leaves, two sweeps, the loss's three.
  EXPECT_EQ(nodes, 10u);
  // Node 0's gradient gets both consumers' shares, and no child weight
  // gradient is zero.
  double row0 = 0.0;
  for (int c = 0; c < 3; ++c) row0 += std::fabs(x->grad.at(0, c));
  EXPECT_GT(row0, 0.0);
  for (double g : store.Find("child/w")->grad.raw()) EXPECT_NE(g, 0.0);
}

TEST(LayersTest, MlpShapesAndDeterminism) {
  ParameterStore store;
  Rng rng(11);
  Mlp mlp(&store, "mlp", {4, 8, 3}, &rng);
  Matrix x(2, 4, 0.5);
  Tape t1, t2;
  Var o1 = mlp.Forward(&t1, t1.Constant(x));
  Var o2 = mlp.Forward(&t2, t2.Constant(x));
  EXPECT_EQ(o1.rows(), 2);
  EXPECT_EQ(o1.cols(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(o1.value().at(0, c), o2.value().at(0, c));
  }
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  ParameterStore store;
  Rng rng(12);
  Param* w = store.Create("w", 1, 1, &rng);
  w->value.at(0, 0) = 5.0;
  Sgd sgd(0.1);
  for (int i = 0; i < 200; ++i) {
    store.ZeroGrads();
    Tape tape;
    Var wv = tape.Leaf(w);
    Var diff = tape.Add(wv, tape.Constant(Matrix(1, 1, -3.0)));
    Var loss = tape.Mul(diff, diff);
    tape.Backward(loss);
    sgd.Step(&store);
  }
  EXPECT_NEAR(w->value.at(0, 0), 3.0, 1e-4);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  ParameterStore store;
  Rng rng(13);
  Param* w = store.Create("w", 1, 2, &rng);
  w->value.at(0, 0) = 4.0;
  w->value.at(0, 1) = -4.0;
  Adam adam(0.05);
  for (int i = 0; i < 800; ++i) {
    store.ZeroGrads();
    Tape tape;
    Var wv = tape.Leaf(w);
    Var loss = tape.SumAll(tape.Mul(wv, wv));
    tape.Backward(loss);
    adam.Step(&store);
  }
  EXPECT_NEAR(w->value.at(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(w->value.at(0, 1), 0.0, 1e-2);
}

TEST(OptimizerTest, FrozenParamsAreNotUpdated) {
  ParameterStore store;
  Rng rng(14);
  Param* w = store.Create("frozen/w", 1, 1, &rng);
  const double before = w->value.at(0, 0);
  EXPECT_EQ(store.SetTrainableByPrefix("frozen", false), 1);
  Adam adam(0.1);
  store.ZeroGrads();
  Tape tape;
  Var loss = tape.Mul(tape.Leaf(w), tape.Leaf(w));
  tape.Backward(loss);
  adam.Step(&store);
  EXPECT_DOUBLE_EQ(w->value.at(0, 0), before);
  // Gradient still accumulated (needed for upstream layers).
  EXPECT_NE(w->grad.at(0, 0), 0.0);
}

TEST(ParamsTest, GradClipBoundsNorm) {
  ParameterStore store;
  Param* w = store.CreateZero("w", 1, 2);
  w->grad.at(0, 0) = 30.0;
  w->grad.at(0, 1) = 40.0;  // norm 50
  store.ClipGradNorm(5.0);
  EXPECT_NEAR(store.GradNorm(), 5.0, 1e-9);
  EXPECT_NEAR(w->grad.at(0, 0), 3.0, 1e-9);
}

TEST(ParamsTest, SerializeDeserializeRoundTrip) {
  Rng rng(15);
  ParameterStore a;
  a.Create("x/w", 2, 3, &rng);
  a.Create("y/w", 1, 4, &rng);
  BinaryWriter writer;
  a.Serialize(&writer);

  ParameterStore b;
  Rng rng2(999);
  b.Create("x/w", 2, 3, &rng2);
  b.Create("y/w", 1, 4, &rng2);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(b.Deserialize(&reader).ok());
  EXPECT_EQ(b.Find("x/w")->value.raw(), a.Find("x/w")->value.raw());
}

TEST(ParamsTest, DeserializeShapeMismatchFails) {
  Rng rng(16);
  ParameterStore a;
  a.Create("w", 2, 3, &rng);
  BinaryWriter writer;
  a.Serialize(&writer);
  ParameterStore b;
  b.Create("w", 3, 3, &rng);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(b.Deserialize(&reader).ok());
}

TEST(ParamsTest, CopyValuesFromMatchesByNameAndShape) {
  Rng rng(17);
  ParameterStore a, b;
  a.Create("shared", 2, 2, &rng);
  a.Create("only_a", 1, 1, &rng);
  b.Create("shared", 2, 2, &rng);
  b.Create("only_b", 1, 1, &rng);
  EXPECT_EQ(b.CopyValuesFrom(a), 1);
  EXPECT_EQ(b.Find("shared")->value.raw(), a.Find("shared")->value.raw());
}

}  // namespace
}  // namespace lsched
