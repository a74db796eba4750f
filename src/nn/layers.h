#ifndef LSCHED_NN_LAYERS_H_
#define LSCHED_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/autograd.h"
#include "nn/params.h"

namespace lsched {

/// Affine layer y = x W + b applied to (n x in) inputs.
class Linear {
 public:
  Linear() = default;
  Linear(ParameterStore* store, const std::string& name, int in, int out,
         Rng* rng);

  Var Forward(Tape* tape, Var x) const;

  /// This layer's parameter leaves on `tape`, for ops that differentiate
  /// through it by hand.
  Var WeightLeaf(Tape* tape) const { return tape->Leaf(w_); }
  Var BiasLeaf(Tape* tape) const { return tape->Leaf(b_); }

  int in_dim() const { return in_; }
  int out_dim() const { return out_; }

  /// Parameter access for the tape-free serving path (read-only use).
  const Param* weight() const { return w_; }
  const Param* bias() const { return b_; }

 private:
  Param* w_ = nullptr;
  Param* b_ = nullptr;
  int in_ = 0;
  int out_ = 0;
};

/// Multi-layer perceptron: Linear + ReLU stacks, final layer linear.
class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, h1, ..., out}. Creates dims.size()-1 Linear layers.
  Mlp(ParameterStore* store, const std::string& name,
      const std::vector<int>& dims, Rng* rng);

  Var Forward(Tape* tape, Var x) const;

  int in_dim() const { return layers_.empty() ? 0 : layers_.front().in_dim(); }
  int out_dim() const {
    return layers_.empty() ? 0 : layers_.back().out_dim();
  }

  /// Layer access for the tape-free serving path (read-only use).
  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace lsched

#endif  // LSCHED_NN_LAYERS_H_
