#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "nn/autograd.h"
#include "nn/layers.h"
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
