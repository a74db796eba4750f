#ifndef LSCHED_CORE_ENCODER_H_
#define LSCHED_CORE_ENCODER_H_

#include <cstdint>
#include <memory>
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
/// triangle-filter + GAT combine step (or, for the GCN ablation, each
/// message-passing sweep) is one tape node whose forward is the serving
/// encoder's routine. That node's backward reads `q`'s producer slots, so
/// `q` must outlive the tape's Backward.
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
  /// What the next version's re-encode reuses: the node rows entering each
  /// convolution layer (layer_in[0] is the projection), the PQE node
  /// messages (num_nodes x summary_dim) and the PQE edge-message sum
  /// (1 x summary_dim), which depends on the weights and EDF only.
  std::vector<Matrix> layer_in;
  Matrix node_msgs;
  Matrix edge_sum;
};

/// Tape-free forward of the Single Query Encoder. Bit-identical to
/// EncodeQuery's values by construction: the combine step of every
/// tree-convolution layer is the same routine, and the projections, mixes
/// and PQE networks are the same GEMMs with the same row sums.
/// Never constructs a Tape. Depends only on `q`, so the result is cacheable
/// per (query id, context version). Equals ReencodeQueryServing with every
/// row dirty.
ServingEncodedQuery EncodeQueryServing(const LSchedModel& model,
                                       const QueryFeatures& q,
                                       ScratchArena* arena);

/// Brings `enc`, the encoding of an earlier version of `q` under the same
/// weights, up to `q`. `dirty` flags the OPF rows that changed since; the
/// re-encode recomputes only the node rows they reach — the row itself for
/// the projection and the PQE node message, plus each tree-convolution
/// layer's consumers of a recomputed row (or, for the sequential GCN, every
/// node whose input row or producers' new rows changed) — then the ordered
/// PQE row sum and pqe_out. Every recomputed row goes through the same
/// kernels as a full encode (MatMulBlockedInto sums each element's k-terms
/// in ascending order whatever the row count), so the result is
/// byte-identical to EncodeQueryServing(q). A null `dirty` encodes
/// everything, the edge embeddings and edge messages included.
void ReencodeQueryServing(const LSchedModel& model, const QueryFeatures& q,
                          const std::vector<char>* dirty, ScratchArena* arena,
                          ServingEncodedQuery* enc);

/// Decision-head input rows of one query, one per candidate (same order
/// as `candidates`): [NE | mean-in-EE | PQE | EDF-aggregate], width
/// 2*hidden_dim + summary_dim + edf_dim. NE is the candidate's node
/// embedding, mean-in-EE the mean embedding of its incoming edges (zeros
/// without one) and the EDF aggregate the mean raw EDF over all its
/// incoming and outgoing edges. The one routine that builds head inputs:
/// the serving cache keeps its rows (EncodingCache::Entry::head_in), and
/// the tape predictor wraps it in one node per query.
void AssembleHeadRows(const LSchedModel& model, const QueryFeatures& q,
                      const Matrix& node_emb, const Matrix& edge_emb,
                      const Matrix& pqe,
                      const std::vector<std::pair<int, int>>& candidates,
                      Matrix* head_in);
/// AssembleHeadRows over a serving encoding.
void AssembleHeadRows(const LSchedModel& model, const QueryFeatures& q,
                      const ServingEncodedQuery& enc,
                      const std::vector<std::pair<int, int>>& candidates,
                      Matrix* head_in);

/// Per-query serving cache keyed by the SchedulingContext's (id, version)
/// pairs and the model's parameter value-epoch. A query's static features
/// are extracted once; a version bump re-extracts only the monitor columns
/// and the candidate list, and the next encode re-encodes only the node
/// rows the changed OPF rows reach. A value-epoch move (optimizer step,
/// checkpoint load) keeps the features and re-encodes everything.
class EncodingCache {
 public:
  struct Entry {
    uint64_t version = 0;
    /// QueryState::serial of the query the features were extracted from.
    uint64_t serial = 0;
    /// This version's features, shared with the Experiences recorded at it.
    std::shared_ptr<const QueryFeatures> features;
    /// Schedulable (op, valid-pipeline-length) pairs.
    std::vector<std::pair<int, int>> candidates;
    /// True once `enc` and `head_in` reflect `features` (encoding is lazy:
    /// an event whose candidate set turns out empty never pays for the
    /// forward).
    bool encoded = false;
    ServingEncodedQuery enc;
    /// Decision-head input rows of `candidates` (AssembleHeadRows), so
    /// consecutive serving events that hit this entry only copy them — the
    /// per-event cost shrinks to QF assembly, row copies, and the head
    /// GEMMs. Valid iff `encoded`.
    Matrix head_in;
    /// OPF rows changed since `enc` was last brought up to date, and
    /// whether `enc` holds nothing reusable (first encode, or the weights
    /// moved) so that every row must be encoded.
    std::vector<char> dirty;
    bool all_dirty = true;
  };

  /// Refreshes the version-dependent half of `q`'s entry (monitor columns
  /// + candidate list) if `version` (from SchedulingContext::query_version)
  /// moved, extracting the static features on the query's first call. Does
  /// NOT encode — callers that decide to run the forward pass call
  /// EnsureEncoded on the returned entry.
  Entry& GetStructural(const QueryState& q, uint64_t version,
                       const LSchedModel& model,
                       const FeatureExtractor& extractor);

  /// Re-encodes the dirty rows of `entry` and re-assembles its head rows if
  /// its encoding is stale.
  void EnsureEncoded(Entry* entry, const LSchedModel& model,
                     ScratchArena* arena);

  /// GetStructural + EnsureEncoded in one call.
  const Entry& Get(const QueryState& q, uint64_t version,
                   const LSchedModel& model, const FeatureExtractor& extractor,
                   ScratchArena* arena);

  /// The entry of query `id`, or nullptr.
  const Entry* Find(QueryId id) const;

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
