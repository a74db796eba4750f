// Equivalence suite for the tape-free serving fast path (Scheduler API v2,
// DESIGN.md §9). Three claims are checked under fuzzer-seeded workloads on
// BOTH engines:
//
//  1. the serving forward (cached encodings + batched GEMM heads) produces
//     the same log-probabilities as the autograd-tape forward, within 1e-9
//     (in practice bit-identical);
//  2. cached per-query encodings are bit-identical to a full re-encode
//     (the dirty-flag invalidation never serves stale embeddings);
//  3. the fast path and the legacy tape path produce identical decisions
//     event-by-event — including identical rng consumption when sampling —
//     and the serving path never constructs an autograd Tape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/encoder.h"
#include "core/features.h"
#include "core/model.h"
#include "core/predictor.h"
#include "exec/real_engine.h"
#include "exec/scheduling_context.h"
#include "exec/sim_engine.h"
#include "nn/autograd.h"
#include "nn/inference.h"
#include "nn/optimizer.h"
#include "sched/decima.h"
#include "sched/heuristics.h"
#include "testing/fuzzer.h"

namespace lsched {
namespace {

LSchedConfig TinyLSchedConfig() {
  LSchedConfig config;
  config.hidden_dim = 8;
  config.summary_dim = 8;
  config.head_hidden = 8;
  return config;
}

DecimaConfig TinyDecimaConfig() {
  DecimaConfig config;
  config.hidden_dim = 8;
  config.summary_dim = 8;
  config.head_hidden = 8;
  return config;
}

bool MatricesBitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (a.at(r, c) != b.at(r, c)) return false;
    }
  }
  return true;
}

/// Runs BOTH forward passes at every scheduling event and accumulates the
/// maximum |tape - serving| log-probability difference, then delegates the
/// actual decision to a sampled LSchedAgent so the episode follows a
/// realistic learned-policy trajectory. Stats are asserted by the test
/// body after the episode (no gtest calls from engine threads).
class LSchedForwardProbe : public Scheduler {
 public:
  explicit LSchedForwardProbe(uint64_t seed)
      : model_(TinyLSchedConfig()),
        extractor_(model_.config().features),
        agent_(&model_, seed) {
    agent_.set_sample_actions(true);
  }

  std::string name() const override { return "lsched-forward-probe"; }
  void Reset() override { agent_.Reset(); }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    StateFeatures features = extractor_.Extract(ctx);
    if (!features.candidates.empty() && features.free_threads > 0) {
      CompareForwards(ctx, features);
    }
    return agent_.Schedule(event, ctx);
  }

  int events_compared() const { return events_compared_; }
  int shape_mismatches() const { return shape_mismatches_; }
  int reencode_mismatches() const { return reencode_mismatches_; }
  int head_path_mismatches() const { return head_path_mismatches_; }
  double max_abs_diff() const { return max_abs_diff_; }
  const EncodingCache& cache() const { return cache_; }

 private:
  void CompareForwards(const SchedulingContext& ctx,
                       const StateFeatures& features) {
    // Reference: the training-time autograd forward on a full extraction.
    Tape tape;
    const EncodedState encoded = EncodeState(&model_, features, &tape);
    const PredictorOutput out = RunPredictor(&model_, features, encoded, &tape);

    // Candidate: the serving path — cached encodings + batched heads.
    arena_.Reset();
    reencode_arena_.Reset();
    const std::vector<QueryState*>& queries = ctx.queries();
    ServingStateView view;
    view.total_threads = ctx.total_threads();
    view.free_threads = ctx.num_free_threads();
    std::vector<std::vector<double>> qf_rows(queries.size());
    std::vector<const Matrix*> head_in;
    std::vector<int> head_rows;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryState* q = queries[qi];
      const EncodingCache::Entry& entry = cache_.Get(
          *q, ctx.query_version(q->id()), model_, extractor_, &arena_);
      // Claim 2: the cache entry equals a from-scratch re-encode.
      const ServingEncodedQuery fresh =
          EncodeQueryServing(model_, entry.features, &reencode_arena_);
      if (!MatricesBitEqual(fresh.node_emb, entry.enc.node_emb) ||
          !MatricesBitEqual(fresh.edge_emb, entry.enc.edge_emb) ||
          !MatricesBitEqual(fresh.pqe, entry.enc.pqe)) {
        ++reencode_mismatches_;
      }
      view.queries.push_back(&entry.features);
      view.encoded.push_back(&entry.enc);
      head_in.push_back(&entry.head_in);
      qf_rows[qi] = extractor_.ExtractQf(*q, ctx);
      view.qf.push_back(&qf_rows[qi]);
      int head_row = 0;
      for (const auto& [op, degree] : entry.candidates) {
        Candidate c;
        c.query_index = static_cast<int>(qi);
        c.op = op;
        c.max_degree = degree;
        view.candidates.push_back(c);
        head_rows.push_back(head_row++);
      }
    }
    if (view.candidates.size() != features.candidates.size()) {
      ++shape_mismatches_;
      return;
    }
    // This view has no head_in/head_row: RunPredictorServing takes the
    // fallback (per-event gather + aggregate) assembly path.
    const Matrix aqe = ComputeAqeServing(model_, view, &arena_);
    RunPredictorServing(model_, view, aqe, &arena_, &serving_out_);

    // Claim 4: the cached-head-row fast path (what LSchedAgent serves
    // with) is bit-identical to the fallback assembly.
    view.head_in = std::move(head_in);
    view.head_row = std::move(head_rows);
    RunPredictorServing(model_, view, aqe, &arena_, &head_out_);
    if (!MatricesBitEqual(serving_out_.root_logprobs, head_out_.root_logprobs) ||
        !MatricesBitEqual(serving_out_.degree_logprobs,
                          head_out_.degree_logprobs) ||
        !MatricesBitEqual(serving_out_.par_logprobs, head_out_.par_logprobs)) {
      ++head_path_mismatches_;
    }

    // Claim 1: log-probabilities match within 1e-9.
    const Matrix& root_ref = out.root_logprobs.value();
    const int num_cands = static_cast<int>(features.candidates.size());
    if (serving_out_.root_logprobs.cols() != num_cands) {
      ++shape_mismatches_;
      return;
    }
    for (int c = 0; c < num_cands; ++c) {
      Track(root_ref.at(0, c) - serving_out_.root_logprobs.at(0, c));
      const Matrix& deg_ref =
          out.degree_logprobs[static_cast<size_t>(c)].value();
      for (int k = 0; k < deg_ref.cols(); ++k) {
        Track(deg_ref.at(0, k) - serving_out_.degree_logprobs.at(c, k));
      }
      const Matrix& par_ref = out.par_logprobs[static_cast<size_t>(c)].value();
      for (int k = 0; k < par_ref.cols(); ++k) {
        Track(par_ref.at(0, k) - serving_out_.par_logprobs.at(c, k));
      }
    }
    ++events_compared_;
  }

  void Track(double diff) {
    max_abs_diff_ = std::max(max_abs_diff_, std::abs(diff));
  }

  LSchedModel model_;
  FeatureExtractor extractor_;
  LSchedAgent agent_;
  EncodingCache cache_;
  ScratchArena arena_;
  ScratchArena reencode_arena_;
  ServingPredictorOutput serving_out_;
  ServingPredictorOutput head_out_;
  int events_compared_ = 0;
  int shape_mismatches_ = 0;
  int reencode_mismatches_ = 0;
  int head_path_mismatches_ = 0;
  double max_abs_diff_ = 0.0;
};

bool DecisionsEqual(const SchedulingDecision& a, const SchedulingDecision& b) {
  if (a.pipelines.size() != b.pipelines.size() ||
      a.parallelism.size() != b.parallelism.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pipelines.size(); ++i) {
    if (a.pipelines[i].query != b.pipelines[i].query ||
        a.pipelines[i].root_op != b.pipelines[i].root_op ||
        a.pipelines[i].degree != b.pipelines[i].degree) {
      return false;
    }
  }
  for (size_t i = 0; i < a.parallelism.size(); ++i) {
    if (a.parallelism[i].query != b.parallelism[i].query ||
        a.parallelism[i].max_threads != b.parallelism[i].max_threads) {
      return false;
    }
  }
  return true;
}

/// At every event, runs the fast path (context) and the legacy tape path
/// (materialized snapshot) through two same-seeded agents sharing one
/// model, and counts decision mismatches. Identical decisions across whole
/// sampled episodes require bit-identical scores AND identical rng
/// consumption on both paths.
class DualLSched : public Scheduler {
 public:
  explicit DualLSched(uint64_t seed)
      : model_(TinyLSchedConfig()),
        fast_(&model_, seed),
        slow_(&model_, seed) {
    fast_.set_sample_actions(true);
    slow_.set_sample_actions(true);
    slow_.set_use_fast_path(false);
  }

  std::string name() const override { return "dual-lsched"; }
  void Reset() override {
    fast_.Reset();
    slow_.Reset();
  }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    SchedulingDecision fast = fast_.Schedule(event, ctx);
    const SystemState snapshot = ctx.MaterializeSnapshot();
    const SchedulingDecision slow = slow_.Schedule(event, snapshot);
    ++events_;
    if (!DecisionsEqual(fast, slow)) ++mismatches_;
    return fast;
  }

  int events() const { return events_; }
  int mismatches() const { return mismatches_; }
  const LSchedAgent& fast_agent() const { return fast_; }

 private:
  LSchedModel model_;
  LSchedAgent fast_;
  LSchedAgent slow_;
  int events_ = 0;
  int mismatches_ = 0;
};

class DualDecima : public Scheduler {
 public:
  explicit DualDecima(uint64_t seed)
      : model_(TinyDecimaConfig()),
        fast_(&model_, seed),
        slow_(&model_, seed) {
    fast_.set_sample_actions(true);
    slow_.set_sample_actions(true);
    slow_.set_use_fast_path(false);
  }

  std::string name() const override { return "dual-decima"; }
  void Reset() override {
    fast_.Reset();
    slow_.Reset();
  }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    SchedulingDecision fast = fast_.Schedule(event, ctx);
    const SystemState snapshot = ctx.MaterializeSnapshot();
    const SchedulingDecision slow = slow_.Schedule(event, snapshot);
    ++events_;
    if (!DecisionsEqual(fast, slow)) ++mismatches_;
    return fast;
  }

  int events() const { return events_; }
  int mismatches() const { return mismatches_; }

 private:
  DecimaModel model_;
  DecimaScheduler fast_;
  DecimaScheduler slow_;
  int events_ = 0;
  int mismatches_ = 0;
};

TEST(ServingEquivalenceTest, LSchedForwardMatchesTapeOnSimEngine) {
  // Dense arrivals so several queries are live at once: cache hits require
  // a query that was NOT dirtied since the previous event, and with a
  // single live query every decision/completion dirties it.
  FuzzerOptions options;
  options.min_queries = 3;
  options.max_queries = 3;
  options.sim_arrival_mean_seconds = 0.001;
  WorkloadFuzzer fuzzer(9001, options);
  LSchedForwardProbe probe(17);
  for (int round = 0; round < 6; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &probe);
  }
  ASSERT_GT(probe.events_compared(), 10);
  EXPECT_EQ(probe.shape_mismatches(), 0);
  EXPECT_EQ(probe.reencode_mismatches(), 0);
  EXPECT_LE(probe.max_abs_diff(), 1e-9);
  EXPECT_EQ(probe.head_path_mismatches(), 0);
  // The cache must actually be doing something: most events re-touch
  // queries that were not dirtied since the previous event.
  EXPECT_GT(probe.cache().hits(), 0);
  EXPECT_GT(probe.cache().misses(), 0);
}

TEST(ServingEquivalenceTest, LSchedForwardMatchesTapeOnRealEngine) {
  WorkloadFuzzer fuzzer(4242);
  FuzzedWorkload w = fuzzer.NextWorkload();
  LSchedForwardProbe probe(29);
  RealEngineConfig config;
  config.num_threads = 3;
  RealEngine engine(w.catalog.get(), config);
  engine.Run(w.real_queries, &probe);
  ASSERT_GT(probe.events_compared(), 0);
  EXPECT_EQ(probe.shape_mismatches(), 0);
  EXPECT_EQ(probe.reencode_mismatches(), 0);
  EXPECT_EQ(probe.head_path_mismatches(), 0);
  EXPECT_LE(probe.max_abs_diff(), 1e-9);
}

/// The full tape ≡ serving comparison on bursty fuzzed Sim episodes.
TEST(ServingEquivalenceTest, ForwardMatchesTapeOnBurstySimEpisodes) {
  FuzzerOptions options;
  options.min_queries = 3;
  options.max_queries = 3;
  options.sim_arrival_mean_seconds = 0.001;
  WorkloadFuzzer fuzzer(6006, options);
  LSchedForwardProbe probe(41);
  for (int round = 0; round < 3; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &probe);
  }
  ASSERT_GT(probe.events_compared(), 0);
  EXPECT_EQ(probe.shape_mismatches(), 0);
  EXPECT_EQ(probe.reencode_mismatches(), 0);
  EXPECT_EQ(probe.head_path_mismatches(), 0);
  EXPECT_LE(probe.max_abs_diff(), 1e-9);
}

TEST(ServingEquivalenceTest, LSchedFastAndSlowDecisionsIdenticalOnSim) {
  WorkloadFuzzer fuzzer(777);
  DualLSched dual(55);
  for (int round = 0; round < 6; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &dual);
  }
  ASSERT_GT(dual.events(), 10);
  EXPECT_EQ(dual.mismatches(), 0);
}

TEST(ServingEquivalenceTest, LSchedFastAndSlowDecisionsIdenticalOnReal) {
  WorkloadFuzzer fuzzer(31338);
  FuzzedWorkload w = fuzzer.NextWorkload();
  DualLSched dual(91);
  RealEngineConfig config;
  config.num_threads = 3;
  RealEngine engine(w.catalog.get(), config);
  engine.Run(w.real_queries, &dual);
  ASSERT_GT(dual.events(), 0);
  EXPECT_EQ(dual.mismatches(), 0);
}

TEST(ServingEquivalenceTest, DecimaFastAndSlowDecisionsIdenticalOnSim) {
  WorkloadFuzzer fuzzer(1234);
  DualDecima dual(66);
  for (int round = 0; round < 6; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &dual);
  }
  ASSERT_GT(dual.events(), 10);
  EXPECT_EQ(dual.mismatches(), 0);
}

TEST(ServingEquivalenceTest, DecimaFastAndSlowDecisionsIdenticalOnReal) {
  WorkloadFuzzer fuzzer(8080);
  FuzzedWorkload w = fuzzer.NextWorkload();
  DualDecima dual(13);
  RealEngineConfig config;
  config.num_threads = 3;
  RealEngine engine(w.catalog.get(), config);
  engine.Run(w.real_queries, &dual);
  ASSERT_GT(dual.events(), 0);
  EXPECT_EQ(dual.mismatches(), 0);
}

/// The acceptance gate for "serving never touches the tape": a pure
/// inference episode through the fast path must construct zero Tapes.
TEST(ServingEquivalenceTest, ServingPathConstructsNoTapes) {
  WorkloadFuzzer fuzzer(2025);
  FuzzedWorkload w = fuzzer.NextWorkload();

  LSchedModel lsched_model(TinyLSchedConfig());
  LSchedAgent lsched(&lsched_model, 7);
  DecimaModel decima_model(TinyDecimaConfig());
  DecimaScheduler decima(&decima_model, 7);

  const int64_t before = Tape::num_constructed();
  {
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &lsched);
    engine.Run(w.sim_queries, &decima);
  }
  {
    RealEngineConfig config;
    config.num_threads = 3;
    RealEngine engine(w.catalog.get(), config);
    engine.Run(w.real_queries, &lsched);
    engine.Run(w.real_queries, &decima);
  }
  EXPECT_EQ(Tape::num_constructed() - before, 0)
      << "inference-only episodes must never allocate an autograd tape";
}

/// Weight updates must invalidate cached encodings: every mutation route
/// into a ParameterStore bumps its value epoch.
TEST(ServingEquivalenceTest, ParameterEpochTracksEveryWeightMutation) {
  LSchedModel model(TinyLSchedConfig());
  ParameterStore* store = model.params();
  const uint64_t e0 = store->value_epoch();

  Sgd sgd(0.01);
  sgd.Step(store);
  const uint64_t e1 = store->value_epoch();
  EXPECT_GT(e1, e0);

  Adam adam(0.001);
  adam.Step(store);
  const uint64_t e2 = store->value_epoch();
  EXPECT_GT(e2, e1);

  LSchedModel other(TinyLSchedConfig());
  store->CopyValuesFrom(*other.params());
  EXPECT_GT(store->value_epoch(), e2);
}

}  // namespace
}  // namespace lsched
