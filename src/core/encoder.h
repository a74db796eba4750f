#ifndef LSCHED_CORE_ENCODER_H_
#define LSCHED_CORE_ENCODER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/model.h"
#include "nn/autograd.h"
#include "nn/inference.h"

namespace lsched {

/// Embeddings of one query produced by the Single Query Encoder + PQE
/// summarization (paper Fig. 6). Row i of node_emb is operator i's
/// embedding, row j of edge_emb plan edge j's.
struct EncodedQuery {
  Var node_emb;  ///< NE, (num_nodes x d)
  Var edge_emb;  ///< EE, (num_edges x d); (0 x d) without edges
  Var pqe;       ///< per-query embedding (1 x summary_dim)
};

/// Encoder output for the full system state.
struct EncodedState {
  std::vector<EncodedQuery> queries;
  Var aqe;  ///< all-queries embedding (1 x summary_dim)
};

/// Runs the Query Encoder on `state` over `tape`:
///  - projects OPF/EDF into d-dim embeddings,
///  - stacks edge-aware tree-convolution layers (Eq. 2) weighted by GAT
///    attention scores (Eqs. 3-5), or the sequential-message-passing GCN
///    fallback when config.use_tree_conv is false,
///  - summarizes per query (PQE) and across queries (AQE).
/// `state` must outlive the tape's Backward (see EncodeQuery).
EncodedState EncodeState(LSchedModel* model, const StateFeatures& state,
                         Tape* tape);

/// Encodes one query as whole matrices: each projection, channel mix and
/// PQE message network is one Linear over all rows, and each layer's
/// triangle-filter + GAT combine step is one tape node whose forward is
/// the serving encoder's routine. That node's backward reads `q`'s
/// producer slots, so `q` must outlive the tape's Backward.
EncodedQuery EncodeQuery(LSchedModel* model, const QueryFeatures& q,
                         Tape* tape);

/// The last step of EncodeState: the AQE over already-encoded queries
/// (`queries` parallel to state.queries). Lets a replay that reuses
/// EncodedQuerys across decisions assemble each state itself.
EncodedState AssembleState(LSchedModel* model, const StateFeatures& state,
                           std::vector<EncodedQuery> queries, Tape* tape);

/// --- tape-free serving path (Scheduler API v2, DESIGN.md §9) -------------

/// Per-query encodings on the serving fast path: plain matrices, no Vars.
/// Node/edge embeddings are batched row-major — row i of node_emb is
/// operator i's embedding — so the decision heads can gather candidate rows
/// straight into GEMM inputs.
struct ServingEncodedQuery {
  Matrix node_emb;  ///< (num_nodes x hidden_dim), post conv stack
  Matrix edge_emb;  ///< (num_edges x hidden_dim)
  Matrix pqe;       ///< (1 x summary_dim)
};

/// Mean raw EDF over all edges touching `op` (input of the pipeline-degree
/// head, Fig. 7 middle). Purely structural — shared by the tape predictor,
/// the serving fallback path, and the cached head-input rows below.
Matrix EdfAggregate(const QueryFeatures& q, int op, int edf_dim);

/// Tape-free forward of the Single Query Encoder. Bit-identical to
/// EncodeQuery's values by construction: the combine step of every
/// tree-convolution layer is the same routine, and the projections, mixes
/// and PQE networks are the same batched GEMMs with the same row sums.
/// Never constructs a Tape. Depends only on the structural features, so
/// the result is cacheable per (query id, context version).
ServingEncodedQuery EncodeQueryServing(const LSchedModel& model,
                                       const QueryFeatures& q,
                                       ScratchArena* arena);

/// Per-query serving cache keyed by the SchedulingContext's (id, version)
/// pairs and the model's parameter value-epoch. A hit returns the cached
/// structural features, candidate list, and encoder outputs without
/// touching the plan; a miss re-extracts and re-encodes just that query.
class EncodingCache {
 public:
  struct Entry {
    uint64_t version = 0;
    QueryFeatures features;  ///< structural only — qf is left empty
    /// Schedulable (op, valid-pipeline-length) pairs.
    std::vector<std::pair<int, int>> candidates;
    /// True once `enc` reflects `features` (encoding is lazy: an event
    /// whose candidate set turns out empty never pays for the forward).
    bool encoded = false;
    ServingEncodedQuery enc;
    /// Pre-assembled decision-head input rows, one per candidate (same
    /// order as `candidates`): [NE | mean-in-EE | PQE | EDF-aggregate],
    /// width 2*hidden_dim + summary_dim + edf_dim. Everything in a row is
    /// structural, so consecutive serving events that hit this entry skip
    /// the per-candidate gather/aggregate work entirely — the per-event
    /// cost shrinks to QF assembly, row copies, and the head GEMMs. Valid
    /// iff `encoded`.
    Matrix head_in;
  };

  /// Refreshes the structural half of `q`'s entry (features + candidate
  /// list) if `version` (from SchedulingContext::query_version) or the
  /// model's parameter epoch moved. Does NOT encode — callers that decide
  /// to run the forward pass call EnsureEncoded on the returned entry.
  Entry& GetStructural(const QueryState& q, uint64_t version,
                       const LSchedModel& model,
                       const FeatureExtractor& extractor);

  /// Runs the serving encoder for `entry` if its encoding is stale.
  void EnsureEncoded(Entry* entry, const LSchedModel& model,
                     ScratchArena* arena);

  /// GetStructural + EnsureEncoded in one call.
  const Entry& Get(const QueryState& q, uint64_t version,
                   const LSchedModel& model, const FeatureExtractor& extractor,
                   ScratchArena* arena);

  void Clear();
  /// Drops entries for queries no longer in `live` (call occasionally; a
  /// completed query's entry is otherwise retained until Clear()).
  void Trim(const std::vector<QueryState*>& live);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<QueryId, Entry> entries_;
  uint64_t params_epoch_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_CORE_ENCODER_H_
