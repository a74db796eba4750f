// The serving EncodingCache keeps a query's static features for its whole
// run, refreshes only the monitor columns and candidates on a version bump,
// and re-encodes only the node rows a changed OPF row reaches. This suite
// checks, after every LSchedAgent::Schedule that refreshed the cache, that
// every entry equals a from-scratch result byte for byte:
//
//  - its features a fresh FeatureExtractor::ExtractQueryStructural, and its
//    candidates a fresh SchedulableCandidates;
//  - its encodings (and the per-layer rows a later re-encode reuses) a full
//    EncodeQueryServing of the fresh features, and its head rows
//    AssembleHeadRows over those.
//
// It runs fuzzed and TPCH SimEngine episodes and a RealEngine session under
// the default model, without GAT, and with the sequential GCN encoder, and
// moves the model's value epoch every few decisions (an optimizer step), so
// entries are re-encoded whole with their features kept. Recorded
// Experiences share the cache's feature objects, so the suite also checks
// that no object changes after it was first seen.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/encoder.h"
#include "core/features.h"
#include "core/model.h"
#include "exec/real_engine.h"
#include "exec/scheduling_context.h"
#include "exec/sim_engine.h"
#include "nn/inference.h"
#include "testing/fuzzer.h"
#include "workload/workload.h"

namespace lsched {
namespace {

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool FeaturesEqual(const QueryFeatures& a, const QueryFeatures& b) {
  const QueryStructure& x = *a.structure;
  const QueryStructure& y = *b.structure;
  return a.qid == b.qid && a.num_nodes == b.num_nodes &&
         BytesEqual(a.opf, b.opf) && BytesEqual(x.edf, y.edf) &&
         x.child_node == y.child_node && x.child_edge == y.child_edge &&
         x.in_edges == y.in_edges && x.out_edges == y.out_edges &&
         x.topo_order == y.topo_order;
}

bool EncodingsEqual(const ServingEncodedQuery& a, const ServingEncodedQuery& b) {
  if (a.layer_in.size() != b.layer_in.size()) return false;
  for (size_t l = 0; l < a.layer_in.size(); ++l) {
    if (!BytesEqual(a.layer_in[l], b.layer_in[l])) return false;
  }
  return BytesEqual(a.node_emb, b.node_emb) &&
         BytesEqual(a.edge_emb, b.edge_emb) && BytesEqual(a.pqe, b.pqe) &&
         BytesEqual(a.node_msgs, b.node_msgs) &&
         BytesEqual(a.edge_sum, b.edge_sum);
}

/// Tallies of one probe, asserted by the test body afterwards (no gtest
/// calls from engine threads).
struct AuditStats {
  int schedules = 0;
  int entries = 0;
  int encoded = 0;
  /// Encoded entries whose previous encoding was reused: the version moved
  /// under unchanged weights.
  int partial = 0;
  /// Entries re-encoded after a weight change with their features kept.
  int epoch_reencodes = 0;
  int missing = 0;
  int feature_mismatches = 0;
  int candidate_mismatches = 0;
  int encoding_mismatches = 0;
  int head_mismatches = 0;
  int mutated = 0;
};

/// Serves a sampled, experience-recording LSchedAgent and audits its cache
/// after every call that refreshed it. Every `step_every` decisions it
/// nudges every weight and moves the value epoch, as an optimizer step
/// does.
class CacheAuditProbe : public Scheduler {
 public:
  CacheAuditProbe(const LSchedConfig& config, uint64_t seed, int step_every)
      : model_(config),
        extractor_(config.features),
        agent_(&model_, seed),
        step_every_(step_every) {
    agent_.set_sample_actions(true);
    agent_.set_exploration_epsilon(0.1);
    agent_.set_record_experiences(true);
  }

  std::string name() const override { return "encoding-cache-audit"; }
  void Reset() override {
    CheckRecordedUnchanged();
    agent_.Reset();
    seen_.clear();
    before_.clear();
  }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    // No free thread: the agent returns before touching the cache.
    const bool refreshes = ctx.num_free_threads() > 0;
    if (refreshes) Snapshot(ctx);
    SchedulingDecision decision = agent_.Schedule(event, ctx);
    if (refreshes) {
      Audit(ctx);
      if (++stats_.schedules % step_every_ == 0) OptimizerStep();
    }
    return decision;
  }

  const AuditStats& stats() {
    CheckRecordedUnchanged();
    return stats_;
  }

 private:
  /// What an entry held before a Schedule call.
  struct Before {
    uint64_t version;
    uint64_t epoch;
    bool encoded;
    const QueryFeatures* features;
  };

  void Snapshot(const SchedulingContext& ctx) {
    before_.clear();
    for (const QueryState* q : ctx.queries()) {
      const EncodingCache::Entry* e = agent_.encoding_cache().Find(q->id());
      if (e == nullptr || e->features == nullptr) continue;
      before_[q->id()] = {e->version, encoded_epoch_[q->id()], e->encoded,
                          e->features.get()};
    }
  }

  void Audit(const SchedulingContext& ctx) {
    const uint64_t epoch = model_.params()->value_epoch();
    for (const QueryState* q : ctx.queries()) {
      const EncodingCache::Entry* e = agent_.encoding_cache().Find(q->id());
      if (e == nullptr || e->version != ctx.query_version(q->id())) {
        ++stats_.missing;
        continue;
      }
      ++stats_.entries;
      Remember(e->features);
      const QueryFeatures fresh = extractor_.ExtractQueryStructural(*q);
      if (!FeaturesEqual(*e->features, fresh)) ++stats_.feature_mismatches;
      if (e->candidates != FeatureExtractor::SchedulableCandidates(*q)) {
        ++stats_.candidate_mismatches;
      }
      if (!e->encoded) continue;
      ++stats_.encoded;
      const auto it = before_.find(q->id());
      if (it != before_.end() && it->second.encoded) {
        if (it->second.version != e->version && it->second.epoch == epoch) {
          ++stats_.partial;
        }
        if (it->second.version == e->version && it->second.epoch != epoch &&
            it->second.features == e->features.get()) {
          ++stats_.epoch_reencodes;
        }
      }
      encoded_epoch_[q->id()] = epoch;
      arena_.Reset();
      const ServingEncodedQuery enc = EncodeQueryServing(model_, fresh, &arena_);
      if (!EncodingsEqual(e->enc, enc)) ++stats_.encoding_mismatches;
      Matrix head_in;
      AssembleHeadRows(model_, fresh, enc, e->candidates, &head_in);
      if (!BytesEqual(e->head_in, head_in)) ++stats_.head_mismatches;
    }
  }

  /// Keeps each feature object alive, with a copy of what it held when
  /// first seen.
  void Remember(const std::shared_ptr<const QueryFeatures>& f) {
    seen_.try_emplace(f.get(), f, *f);
  }

  /// Every object the agent has handed out, recorded Experiences included,
  /// still holds what it held when first seen.
  void CheckRecordedUnchanged() {
    for (const auto& [ptr, kept] : seen_) {
      if (!FeaturesEqual(*kept.first, kept.second)) ++stats_.mutated;
    }
    seen_.clear();
  }

  void OptimizerStep() {
    for (Param* p : model_.params()->All()) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] *= 1.0 + 1e-3 * static_cast<double>(i % 7);
      }
    }
    model_.params()->BumpValueEpoch();
  }

  LSchedModel model_;
  FeatureExtractor extractor_;
  LSchedAgent agent_;
  int step_every_;
  ScratchArena arena_;
  AuditStats stats_;
  std::map<QueryId, Before> before_;
  std::map<QueryId, uint64_t> encoded_epoch_;
  std::map<const QueryFeatures*,
           std::pair<std::shared_ptr<const QueryFeatures>, QueryFeatures>>
      seen_;
};

LSchedConfig Variant(const std::string& name) {
  LSchedConfig config;
  if (name == "no_gat") config.use_gat = false;
  if (name == "gcn") config.use_tree_conv = false;
  return config;
}

void ExpectExact(CacheAuditProbe* probe, int min_partial, int min_epoch) {
  const AuditStats& s = probe->stats();
  ASSERT_GT(s.entries, 0);
  EXPECT_EQ(s.missing, 0);
  EXPECT_EQ(s.feature_mismatches, 0);
  EXPECT_EQ(s.candidate_mismatches, 0);
  EXPECT_EQ(s.encoding_mismatches, 0);
  EXPECT_EQ(s.head_mismatches, 0);
  EXPECT_EQ(s.mutated, 0);
  // The incremental paths must actually run.
  EXPECT_GT(s.encoded, 0);
  EXPECT_GE(s.partial, min_partial);
  EXPECT_GE(s.epoch_reencodes, min_epoch);
}

class EncodingCacheTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncodingCacheTest, FuzzedSimEpisodesMatchFreshEncodes) {
  FuzzerOptions options;
  options.min_queries = 3;
  options.max_queries = 6;
  options.sim_arrival_mean_seconds = 0.001;
  WorkloadFuzzer fuzzer(7117, options);
  CacheAuditProbe probe(Variant(GetParam()), 5, /*step_every=*/9);
  for (int round = 0; round < 5; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    engine.Run(w.sim_queries, &probe);
  }
  ExpectExact(&probe, 10, 1);
}

TEST_P(EncodingCacheTest, TpchSimEpisodesMatchFreshEncodes) {
  CacheAuditProbe probe(Variant(GetParam()), 11, /*step_every=*/13);
  for (uint64_t seed = 0; seed < 2; ++seed) {
    WorkloadConfig wcfg;
    wcfg.benchmark = Benchmark::kTpch;
    wcfg.num_queries = 10;
    wcfg.scale_factors = {2, 5};
    wcfg.mean_interarrival_seconds = 0.02;
    Rng rng(300 + seed);
    SimEngineConfig config;
    config.num_threads = 16;
    SimEngine engine(config);
    engine.Run(GenerateWorkload(wcfg, &rng), &probe);
  }
  ExpectExact(&probe, 20, 1);
}

TEST_P(EncodingCacheTest, RealEngineSessionMatchesFreshEncodes) {
  // Dense arrivals, so queries overlap and a version bump of one meets
  // unchanged others.
  FuzzerOptions options;
  options.min_queries = 6;
  options.max_queries = 8;
  options.real_arrival_mean_seconds = 0.0002;
  WorkloadFuzzer fuzzer(5151, options);
  FuzzedWorkload w = fuzzer.NextWorkload();
  CacheAuditProbe probe(Variant(GetParam()), 23, /*step_every=*/2);
  RealEngineConfig config;
  config.num_threads = 3;
  RealEngine engine(w.catalog.get(), config);
  engine.Run(w.real_queries, &probe);
  // Wall-clock timing decides which entries meet a weight change, so the
  // Sim legs carry the epoch-path floor.
  ExpectExact(&probe, 1, 0);
}

INSTANTIATE_TEST_SUITE_P(Configs, EncodingCacheTest,
                         ::testing::Values("default", "no_gat", "gcn"));

}  // namespace
}  // namespace lsched
