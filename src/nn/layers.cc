#include "nn/layers.h"

namespace lsched {

Linear::Linear(ParameterStore* store, const std::string& name, int in,
               int out, Rng* rng)
    : in_(in), out_(out) {
  w_ = store->Create(name + "/w", in, out, rng);
  b_ = store->CreateZero(name + "/b", 1, out);
}

Var Linear::Forward(Tape* tape, Var x) const {
  return tape->Add(tape->MatMul(x, WeightLeaf(tape)), BiasLeaf(tape));
}

Mlp::Mlp(ParameterStore* store, const std::string& name,
         const std::vector<int>& dims, Rng* rng) {
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, name + "/l" + std::to_string(i), dims[i],
                         dims[i + 1], rng);
  }
}

Var Mlp::Forward(Tape* tape, Var x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    if (i + 1 < layers_.size()) h = tape->Relu(h);
  }
  return h;
}

}  // namespace lsched
