// Equivalence suite for the tape-free serving path (DESIGN.md §9). Four
// claims are checked under fuzzer-seeded workloads on BOTH engines:
//
//  1. the serving forward (cached encodings + batched GEMM heads) produces
//     the same log-probabilities as the autograd-tape forward, within 1e-9
//     (in practice bit-identical);
//  2. cached per-query encodings are bit-identical to a full re-encode
//     (the dirty-flag invalidation never serves stale embeddings);
//  3. what training replays is what serving decided: every Experience the
//     serving path records (LSched and Decima) bit-equals the uncached
//     extraction at that event, the trainer's tape replay of it (for
//     LSched the chunked, memoized DecisionReplay) gives the chosen root's
//     log-probability the serving path computed, within 1e-9, and
//     resampling the replayed distributions with the agent's rng stream
//     reproduces every recorded action;
//  4. the serving path never constructs an autograd Tape;
//  5. the tape encoder's per-query embeddings bit-equal the serving
//     encoder's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/encoder.h"
#include "core/features.h"
#include "core/model.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "exec/real_engine.h"
#include "exec/scheduling_context.h"
#include "exec/sim_engine.h"
#include "nn/autograd.h"
#include "nn/inference.h"
#include "nn/optimizer.h"
#include "sched/decima.h"
#include "sched/heuristics.h"
#include "testing/fuzzer.h"
#include "workload/workload.h"

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

/// Same shape and the same bytes (distinguishes -0.0 from 0.0).
bool MatricesBytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
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
  int tape_encoding_mismatches() const { return tape_encoding_mismatches_; }
  int encodings_compared() const { return encodings_compared_; }
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
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryState* q = queries[qi];
      const EncodingCache::Entry& entry = cache_.Get(
          *q, ctx.query_version(q->id()), model_, extractor_, &arena_);
      // Claim 2: the cache entry equals a from-scratch re-encode.
      const ServingEncodedQuery fresh =
          EncodeQueryServing(model_, *entry.features, &reencode_arena_);
      if (!MatricesBitEqual(fresh.node_emb, entry.enc.node_emb) ||
          !MatricesBitEqual(fresh.edge_emb, entry.enc.edge_emb) ||
          !MatricesBitEqual(fresh.pqe, entry.enc.pqe)) {
        ++reencode_mismatches_;
      }
      // Claim 5: the tape encoder (on the uncached extraction) gives the
      // serving encoder's embeddings, byte for byte.
      if (qi < encoded.queries.size()) {
        const EncodedQuery& tq = encoded.queries[qi];
        ++encodings_compared_;
        if (!MatricesBytesEqual(tq.node_emb.value(), entry.enc.node_emb) ||
            !MatricesBytesEqual(tq.edge_emb.value(), entry.enc.edge_emb) ||
            !MatricesBytesEqual(tq.pqe.value(), entry.enc.pqe)) {
          ++tape_encoding_mismatches_;
        }
      }
      view.encoded.push_back(&entry.enc);
      view.head_in.push_back(&entry.head_in);
      extractor_.ExtractQf(*q, ctx, &qf_rows[qi]);
      view.qf.push_back(&qf_rows[qi]);
      for (const auto& [op, degree] : entry.candidates) {
        Candidate c;
        c.query_index = static_cast<int>(qi);
        c.op = op;
        c.max_degree = degree;
        view.candidates.push_back(c);
      }
    }
    if (view.candidates.size() != features.candidates.size()) {
      ++shape_mismatches_;
      return;
    }
    const Matrix aqe = ComputeAqeServing(model_, view, &arena_);
    RunPredictorServing(model_, view, aqe, &arena_, &serving_out_);

    // Claim 1: log-probabilities match within 1e-9.
    if (!TrackAll(out.root_logprobs.value(), serving_out_.root_logprobs) ||
        !TrackAll(out.degree_logprobs.value(),
                  serving_out_.degree_logprobs) ||
        !TrackAll(out.par_logprobs.value(), serving_out_.par_logprobs) ||
        out.par_row != serving_out_.par_row) {
      ++shape_mismatches_;
      return;
    }
    ++events_compared_;
  }

  /// Tracks |ref - got| over every entry; false on a shape mismatch.
  bool TrackAll(const Matrix& ref, const Matrix& got) {
    if (!ref.SameShape(got)) return false;
    for (size_t i = 0; i < ref.size(); ++i) {
      max_abs_diff_ =
          std::max(max_abs_diff_, std::abs(ref.data()[i] - got.data()[i]));
    }
    return true;
  }

  LSchedModel model_;
  FeatureExtractor extractor_;
  LSchedAgent agent_;
  EncodingCache cache_;
  ScratchArena arena_;
  ScratchArena reencode_arena_;
  ServingPredictorOutput serving_out_;
  int events_compared_ = 0;
  int shape_mismatches_ = 0;
  int reencode_mismatches_ = 0;
  int tape_encoding_mismatches_ = 0;
  int encodings_compared_ = 0;
  double max_abs_diff_ = 0.0;
};

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool StatesBitEqual(const StateFeatures& a, const StateFeatures& b) {
  if (std::memcmp(&a.time, &b.time, sizeof(double)) != 0 ||
      a.total_threads != b.total_threads ||
      a.free_threads != b.free_threads ||
      a.queries.size() != b.queries.size() ||
      a.candidates.size() != b.candidates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const QueryFeatures& x = *a.queries[i];
    const QueryFeatures& y = *b.queries[i];
    const QueryStructure& xs = *x.structure;
    const QueryStructure& ys = *y.structure;
    if (x.qid != y.qid || x.num_nodes != y.num_nodes ||
        !MatricesBytesEqual(x.opf, y.opf) ||
        !MatricesBytesEqual(xs.edf, ys.edf) ||
        xs.child_node != ys.child_node || xs.child_edge != ys.child_edge ||
        xs.in_edges != ys.in_edges || xs.out_edges != ys.out_edges ||
        xs.topo_order != ys.topo_order || a.qf.size() != b.qf.size() ||
        !BitsEqual(a.qf[i], b.qf[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const Candidate& x = a.candidates[i];
    const Candidate& y = b.candidates[i];
    if (x.query_index != y.query_index || x.op != y.op ||
        x.max_degree != y.max_degree) {
      return false;
    }
  }
  return true;
}

bool StatesBitEqual(const DecimaStateFeatures& a,
                    const DecimaStateFeatures& b) {
  if (std::memcmp(&a.time, &b.time, sizeof(double)) != 0 ||
      a.total_threads != b.total_threads ||
      a.queries.size() != b.queries.size() || a.candidates != b.candidates) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const DecimaQueryFeatures& x = a.queries[i];
    const DecimaQueryFeatures& y = b.queries[i];
    if (x.qid != y.qid || x.num_nodes != y.num_nodes ||
        !MatricesBytesEqual(x.node_features, y.node_features) ||
        x.child_node != y.child_node || x.topo_order != y.topo_order ||
        !BitsEqual(x.query_features, y.query_features)) {
      return false;
    }
  }
  return true;
}

/// Draws from row `row` of a log-probability matrix exactly as the
/// serving path samples (probabilities = exp(logprobs), one
/// Rng::WeightedIndex draw).
int SampleRow(const Matrix& logprobs, int row, Rng* rng) {
  std::vector<double> probs(static_cast<size_t>(logprobs.cols()));
  for (int c = 0; c < logprobs.cols(); ++c) {
    probs[static_cast<size_t>(c)] = std::exp(logprobs.at(row, c));
  }
  const size_t idx = rng->WeightedIndex(probs);
  return idx >= probs.size() ? 0 : static_cast<int>(idx);
}

/// Per-episode tallies of a replay probe, asserted by the test body after
/// the episodes (no gtest calls from engine threads).
struct ReplayStats {
  int decisions = 0;
  int state_mismatches = 0;
  int action_mismatches = 0;
  int scores_checked = 0;
  double max_score_diff = 0.0;
  /// Decisions whose chosen query's parallelism row is not the first.
  int later_par_rows = 0;

  /// `served_score` is the log-probability of the chosen root the serving
  /// path returned as the decision's score.
  void TrackScore(double served_score, double replayed) {
    if (std::isnan(served_score)) return;
    ++scores_checked;
    max_score_diff =
        std::max(max_score_diff, std::abs(served_score - replayed));
  }
};

void ExpectReplayMatches(const ReplayStats& stats, int min_decisions) {
  ASSERT_GT(stats.decisions, min_decisions);
  EXPECT_EQ(stats.state_mismatches, 0);
  EXPECT_EQ(stats.action_mismatches, 0);
  EXPECT_EQ(stats.scores_checked, stats.decisions);
  EXPECT_LE(stats.max_score_diff, 1e-9);
}

/// Serves a sampled, experience-recording LSchedAgent and checks each
/// Experience it records against (a) the uncached extraction at that event
/// and (b) the trainer's replay (DecisionReplay, kDecisionsPerTape
/// consecutive decisions per tape with memoized query encodings, as in
/// AccumulatePolicyGradient). The mirror rng starts from the agent's seed,
/// so it replays the agent's draws against the replayed distributions.
class LSchedReplayProbe : public Scheduler {
 public:
  explicit LSchedReplayProbe(uint64_t seed)
      : model_(TinyLSchedConfig()), agent_(&model_, seed), mirror_(seed) {
    agent_.set_sample_actions(true);
    agent_.set_record_experiences(true);
  }

  std::string name() const override { return "lsched-replay-probe"; }
  void Reset() override { agent_.Reset(); }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    const StateFeatures reference = agent_.extractor().Extract(ctx);
    const size_t recorded = agent_.experiences().size();
    SchedulingDecision decision = agent_.Schedule(event, ctx);
    if (agent_.experiences().size() > recorded) {
      Check(agent_.experiences().back(), reference, decision.score);
    }
    return decision;
  }

  const ReplayStats& stats() const { return stats_; }
  /// Query encodings the replay reused within a tape.
  int memo_hits() const {
    return memo_hits_ + (replay_ != nullptr ? replay_->memo_hits() : 0);
  }

 private:
  void Check(const Experience& exp, const StateFeatures& reference,
             double served_score) {
    ++stats_.decisions;
    if (!StatesBitEqual(exp.state, reference)) ++stats_.state_mismatches;
    if (chunk_.size() == static_cast<size_t>(kDecisionsPerTape)) {
      memo_hits_ += replay_->memo_hits();
      replay_.reset();
      tape_.reset();
      chunk_.clear();
    }
    if (tape_ == nullptr) {
      tape_ = std::make_unique<Tape>();
      replay_ = std::make_unique<DecisionReplay>(&model_, tape_.get());
    }
    // The replay keeps pointers into the chunk's experiences.
    chunk_.push_back(exp);
    const PredictorOutput out = replay_->Forward(chunk_.back());
    const int cand = SampleRow(out.root_logprobs.value(), 0, &mirror_);
    const int degree = SampleRow(out.degree_logprobs.value(), cand, &mirror_);
    const int par = SampleRow(out.par_logprobs.value(),
                              out.par_row[static_cast<size_t>(cand)], &mirror_);
    if (out.par_row[static_cast<size_t>(cand)] > 0) ++stats_.later_par_rows;
    if (cand != exp.action.candidate_index ||
        degree != exp.action.degree_index ||
        par != exp.action.parallelism_index) {
      ++stats_.action_mismatches;
    }
    stats_.TrackScore(served_score, out.root_logprobs.value().at(
                                        0, exp.action.candidate_index));
  }

  LSchedModel model_;
  LSchedAgent agent_;
  Rng mirror_;
  ReplayStats stats_;
  std::deque<Experience> chunk_;
  std::unique_ptr<Tape> tape_;
  std::unique_ptr<DecisionReplay> replay_;
  int memo_hits_ = 0;
};

/// The Decima counterpart: checks each recorded DecimaExperience against
/// DecimaScheduler::ExtractFeatures and DecimaTrainer's tape replay
/// (Encode/Forward).
class DecimaReplayProbe : public Scheduler {
 public:
  explicit DecimaReplayProbe(uint64_t seed)
      : model_(TinyDecimaConfig()), agent_(&model_, seed), mirror_(seed) {
    agent_.set_sample_actions(true);
    agent_.set_record_experiences(true);
  }

  std::string name() const override { return "decima-replay-probe"; }
  void Reset() override { agent_.Reset(); }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    const DecimaStateFeatures reference =
        DecimaScheduler::ExtractFeatures(ctx);
    const size_t recorded = agent_.experiences().size();
    SchedulingDecision decision = agent_.Schedule(event, ctx);
    if (agent_.experiences().size() > recorded) {
      Check(agent_.experiences().back(), reference, decision.score);
    }
    return decision;
  }

  const ReplayStats& stats() const { return stats_; }

 private:
  void Check(const DecimaExperience& exp,
             const DecimaStateFeatures& reference, double served_score) {
    ++stats_.decisions;
    if (!StatesBitEqual(exp.state, reference)) ++stats_.state_mismatches;
    Tape tape;
    const DecimaEncoded enc = Encode(&model_, exp.state, &tape);
    const DecimaForward out = Forward(&model_, exp.state, enc, &tape);
    const int cand = SampleRow(out.node_logprobs.value(), 0, &mirror_);
    const int par = SampleRow(out.par_logprobs.value(),
                              out.par_row[static_cast<size_t>(cand)], &mirror_);
    if (out.par_row[static_cast<size_t>(cand)] > 0) ++stats_.later_par_rows;
    if (cand != exp.chosen_candidate || par != exp.chosen_parallelism) {
      ++stats_.action_mismatches;
    }
    stats_.TrackScore(served_score,
                      out.node_logprobs.value().at(0, exp.chosen_candidate));
  }

  DecimaModel model_;
  DecimaScheduler agent_;
  Rng mirror_;
  ReplayStats stats_;
};

void RunSimEpisodes(uint64_t fuzz_seed, Scheduler* policy) {
  WorkloadFuzzer fuzzer(fuzz_seed);
  for (int round = 0; round < 6; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, policy);
  }
}

void RunRealEpisode(uint64_t fuzz_seed, Scheduler* policy) {
  WorkloadFuzzer fuzzer(fuzz_seed);
  FuzzedWorkload w = fuzzer.NextWorkload();
  RealEngineConfig config;
  config.num_threads = 3;
  RealEngine engine(w.catalog.get(), config);
  engine.Run(w.real_queries, policy);
}

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
  EXPECT_GT(probe.encodings_compared(), 0);
  EXPECT_EQ(probe.tape_encoding_mismatches(), 0);
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
  EXPECT_EQ(probe.tape_encoding_mismatches(), 0);
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
  EXPECT_EQ(probe.tape_encoding_mismatches(), 0);
  EXPECT_LE(probe.max_abs_diff(), 1e-9);
}

TEST(ServingEquivalenceTest, LSchedReplayMatchesServingOnSim) {
  LSchedReplayProbe probe(55);
  RunSimEpisodes(777, &probe);
  ExpectReplayMatches(probe.stats(), 10);
}

/// Dense arrivals keep several queries live and undirtied across nearby
/// decisions, so the replay reuses encodings within a tape.
TEST(ServingEquivalenceTest, LSchedMemoizedReplayMatchesServingOnBurstySim) {
  FuzzerOptions options;
  options.min_queries = 3;
  options.max_queries = 3;
  options.sim_arrival_mean_seconds = 0.001;
  WorkloadFuzzer fuzzer(6006, options);
  LSchedReplayProbe probe(43);
  for (int round = 0; round < 3; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &probe);
  }
  ExpectReplayMatches(probe.stats(), 10);
  EXPECT_GT(probe.memo_hits(), 0);
}

/// A dense TPCH episode: most decisions choose a candidate whose query's
/// parallelism row is not the first, so serving must draw each action from
/// the chosen candidate's query row for the replay to reproduce it.
TEST(ServingEquivalenceTest, ReplayDrawsParallelismFromTheChosenQuerysRow) {
  LSchedReplayProbe lsched(43);
  DecimaReplayProbe decima(66);
  const auto factory =
      MakeEpisodeFactory(Benchmark::kTpch, 12, 12, 0.02, 0.02);
  for (Scheduler* probe : std::initializer_list<Scheduler*>{&lsched, &decima}) {
    Rng rng(5);
    SimEngineConfig config;
    config.num_threads = 8;
    SimEngine engine(config);
    engine.Run(factory(0, &rng), probe);
  }
  ExpectReplayMatches(lsched.stats(), 10);
  ExpectReplayMatches(decima.stats(), 10);
  EXPECT_GT(lsched.stats().later_par_rows, 10);
  EXPECT_GT(decima.stats().later_par_rows, 10);
}

TEST(ServingEquivalenceTest, LSchedReplayMatchesServingOnReal) {
  LSchedReplayProbe probe(91);
  RunRealEpisode(31338, &probe);
  ExpectReplayMatches(probe.stats(), 0);
}

TEST(ServingEquivalenceTest, DecimaReplayMatchesServingOnSim) {
  DecimaReplayProbe probe(66);
  RunSimEpisodes(1234, &probe);
  ExpectReplayMatches(probe.stats(), 10);
}

TEST(ServingEquivalenceTest, DecimaReplayMatchesServingOnReal) {
  DecimaReplayProbe probe(13);
  RunRealEpisode(8080, &probe);
  ExpectReplayMatches(probe.stats(), 0);
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
