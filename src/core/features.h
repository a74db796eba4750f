#ifndef LSCHED_CORE_FEATURES_H_
#define LSCHED_CORE_FEATURES_H_

#include <array>
#include <utility>
#include <vector>

#include "exec/scheduler.h"

namespace lsched {

class SchedulingContext;

/// Sizes of the feature vocabularies (paper §4.1). One-hot vocabularies are
/// hashed/clamped so the network dimensions stay fixed across benchmarks.
struct FeatureConfig {
  int num_relations = 16;     ///< O-IN one-hot width (relation id mod width)
  int num_columns = 32;       ///< O-COLS one-hot width (column id mod width)
  int blocks_downsample = 8;  ///< |d| of the Eq. (1) O-BLCKS moving average
  int max_threads = 128;      ///< Q-LOC vector width

  /// Operator feature (OPF) vector width:
  /// O-TY one-hot + O-IN + O-COLS + O-BLCKS + [O-WO ratio, O-WO log,
  /// O-DUR log, O-MEM log, is_scheduled, is_schedulable].
  int opf_dim() const;
  /// Edge feature (EDF) width: [E-NPB, E-DIR].
  int edf_dim() const { return 2; }
  /// Query feature (QF) width: [Q-ATH, Q-FTH] + Q-LOC.
  int qf_dim() const { return 2 + max_threads; }
};

/// Features + structure of one running query at a scheduling event. The
/// structure (children slots per node) is what the tree convolution slides
/// its triangle filters over — it encodes the O-CON adjacency feature.
struct QueryFeatures {
  QueryId qid = kInvalidQuery;
  int num_nodes = 0;
  /// OPF row per operator.
  std::vector<std::vector<double>> opf;
  /// EDF row per plan edge.
  std::vector<std::vector<double>> edf;
  /// Producer ("child" in tree-convolution terms) slots per node: up to two
  /// (node, edge) pairs; -1 marks an absent slot.
  std::vector<std::array<int, 2>> child_node;
  std::vector<std::array<int, 2>> child_edge;
  /// All incoming / outgoing edge indices per node (for edge-embedding
  /// aggregation and the pipeline-degree head's EDF input).
  std::vector<std::vector<int>> in_edges;
  std::vector<std::vector<int>> out_edges;
  /// Topological order (producers first) — used by the GCN baselines.
  std::vector<int> topo_order;
  /// QF row for the whole query.
  std::vector<double> qf;
};

/// One candidate execution root (a schedulable operator).
struct Candidate {
  int query_index = -1;  ///< index into StateFeatures::queries
  int op = -1;
  int max_degree = 1;  ///< length of the currently-valid pipeline from op
};

/// Everything the scheduling agent's forward pass consumes at one event.
/// Self-contained (no pointers into engine state) so training can replay
/// decisions long after the episode finished.
struct StateFeatures {
  double time = 0.0;
  int total_threads = 0;
  int free_threads = 0;
  std::vector<QueryFeatures> queries;
  std::vector<Candidate> candidates;
};

/// Extracts the paper's feature set from a SchedulingContext.
///
/// The extraction is split along the cache boundary the serving fast path
/// exploits (DESIGN.md §9): everything in ExtractQueryStructural depends
/// only on query-local state and is invalidated exactly by the context's
/// dirty flags (MarkQueryDirty), while the QF row additionally reads
/// thread-pool occupancy and must be recomputed fresh at every event.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config) : config_(config) {}

  const FeatureConfig& config() const { return config_; }

  /// Full (uncached) extraction: the reference the serving path's cached
  /// features and recorded Experiences must equal bit for bit.
  StateFeatures Extract(const SchedulingContext& ctx) const;

  /// The version-cacheable part of one query's features: OPF, EDF, plan
  /// structure, and topological order — everything except the QF row.
  QueryFeatures ExtractQueryStructural(const QueryState& q) const;

  /// Writes the per-event QF row ([Q-ATH, Q-FTH] + Q-LOC locality bits)
  /// into `*qf`, reusing its capacity. Depends on thread occupancy, so
  /// never cached.
  void ExtractQf(const QueryState& q, const SchedulingContext& ctx,
                 std::vector<double>* qf) const;

  /// Schedulable (op, valid-pipeline-length) pairs of one query — the
  /// per-query slice of StateFeatures::candidates. Cacheable per version.
  static std::vector<std::pair<int, int>> SchedulableCandidates(
      const QueryState& q);

 private:
  FeatureConfig config_;
};

}  // namespace lsched

#endif  // LSCHED_CORE_FEATURES_H_
