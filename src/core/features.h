#ifndef LSCHED_CORE_FEATURES_H_
#define LSCHED_CORE_FEATURES_H_

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "exec/scheduler.h"
#include "nn/tensor.h"

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

/// Execution-monitor OPF columns: the last ones of every OPF row ([O-WO
/// ratio, O-WO log, O-DUR log, O-MEM log, is_scheduled, is_schedulable]).
/// They are the only features that change while a query runs.
constexpr int kMonitorColumns = 6;

/// The static part of one query's features: fixed from the query's
/// admission to its completion, so it is extracted once per query and
/// shared by every version's QueryFeatures. The structure (producer slots
/// per node) is what the tree convolution slides its triangle filters over
/// — it encodes the O-CON adjacency feature.
struct QueryStructure {
  /// EDF row per plan edge, (num_edges x edf_dim).
  Matrix edf;
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
};

/// Features of one running query at one context version: everything the
/// encoder reads. Immutable once built, so one object per (query id,
/// version) is shared by the encoding cache entry, every Experience
/// recorded at that version, and the trainer's replay memo.
struct QueryFeatures {
  QueryId qid = kInvalidQuery;
  int num_nodes = 0;
  /// OPF row per operator, (num_nodes x opf_dim): the static columns
  /// (O-TY, O-IN, O-COLS, O-BLCKS) then the kMonitorColumns monitor ones.
  Matrix opf;
  std::shared_ptr<const QueryStructure> structure;
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
  /// Per query: its features at this event's version (shared, immutable).
  std::vector<std::shared_ptr<const QueryFeatures>> queries;
  /// QF row per query (parallel to `queries`): reads thread occupancy, so
  /// it belongs to the event, not to the query's version.
  std::vector<std::vector<double>> qf;
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
  /// Extracts the static part afresh too (the reference the cache's
  /// refreshed versions must equal).
  QueryFeatures ExtractQueryStructural(const QueryState& q) const;

  /// Writes operator `op`'s kMonitorColumns monitor columns to `out`.
  /// Everything else in a QueryFeatures is static, so this is all a
  /// version bump re-extracts.
  static void ExtractMonitorColumns(const QueryState& q, int op, double* out);

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
