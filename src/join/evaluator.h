// The Join Evaluator (paper §4): receives the batch the scheduler
// dispatched for one bucket, selects the hybrid join strategy, pulls the
// bucket through the Bucket Cache (scan path) or probes the spatial index
// (indexed path), runs the cross-match, and reports both the matches and
// the modeled cost of the batch.

#ifndef LIFERAFT_JOIN_EVALUATOR_H_
#define LIFERAFT_JOIN_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "join/hybrid.h"
#include "join/indexed_join.h"
#include "join/merge_join.h"
#include "query/workload.h"
#include "storage/btree.h"
#include "storage/bucket_cache.h"
#include "storage/disk_model.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::join {

/// Outcome of evaluating one bucket batch.
struct BatchResult {
  JoinStrategy strategy = JoinStrategy::kScan;
  /// True if the scan path found the bucket resident (phi(i) == 0).
  bool cache_hit = false;
  /// Modeled execution time of the batch (T_b + T_m terms, or probe costs).
  /// Always io_ms + cpu_ms.
  TimeMs cost_ms = 0.0;
  /// Disk-busy portion of cost_ms: T_b on a scan miss (0 on a hit) or the
  /// probe I/O of the indexed path. The prefetch pipeline must not overlap
  /// another fetch with this interval (one disk arm in the cost model).
  TimeMs io_ms = 0.0;
  /// In-memory matching portion (the T_m terms); the next bucket's fetch
  /// can hide behind it.
  TimeMs cpu_ms = 0.0;
  JoinCounters counters;
  /// Matches of all queries in the batch, interleaved.
  std::vector<query::Match> matches;
};

/// How a per-query (non-shared) unit is executed.
enum class PerQueryMode {
  kNoShareScan,  ///< read each bucket straight from the store and scan
  kIndexProbes,  ///< SkyQuery legacy: spatial-index probes only
};

/// One admitted query's per-bucket sub-queries, evaluated independently of
/// the shared cache and of every other query (the NoShare / IndexOnly
/// baselines of paper §5).
struct PerQueryWork {
  query::QueryId query_id = 0;
  TimeMs arrival_ms = 0.0;
  query::Predicate predicate;
  /// Not owned; must stay valid until evaluation returns.
  const std::vector<query::BucketWorkload>* workloads = nullptr;
};

/// Modeled outcome of one per-query unit.
struct PerQueryResult {
  TimeMs cost_ms = 0.0;
  uint64_t matches = 0;
};

/// Aggregate evaluator statistics across a run.
struct EvaluatorStats {
  uint64_t batches = 0;
  uint64_t scan_batches = 0;
  uint64_t indexed_batches = 0;
  uint64_t index_probes = 0;
  TimeMs total_cost_ms = 0.0;
};

/// Executes bucket batches on the caller's thread, the scheduler loop's, as
/// in the paper: one pass over a bucket serves its whole queue, and
/// strategy choice, cache traffic, modeled cost, counters and match order
/// follow from the batch alone.
class JoinEvaluator {
 public:
  /// @param cache  bucket cache layered over the archive's store (not
  ///               owned)
  /// @param index  spatial index; may be null, which forces the scan path
  /// @param model  disk cost model used to charge virtual time
  /// @param config hybrid strategy configuration
  JoinEvaluator(storage::BucketCache* cache, const storage::BTreeIndex* index,
                storage::DiskModel model, HybridConfig config);

  /// Evaluates the batch of workload entries against bucket `bucket`.
  /// `collect_matches` can be disabled for scheduling-only experiments
  /// where match tuples would only burn memory.
  Result<BatchResult> EvaluateBucket(
      storage::BucketIndex bucket,
      const std::vector<query::WorkloadEntry>& batch,
      bool collect_matches = true);

  /// Evaluates one per-query unit, bucket by bucket in `work` order. It
  /// touches only its own buckets (read store-direct with ReadBucket, no
  /// shared cache) or the immutable index. `collect_matches` mirrors
  /// EvaluateBucket (tuples are materialized then discarded by per-query
  /// callers; counts are always exact).
  Result<PerQueryResult> EvaluatePerQuery(PerQueryMode mode,
                                          const PerQueryWork& work,
                                          bool collect_matches = false);

  /// Attaches the multi-volume topology (not owned; may be null = single
  /// volume). A bucket's sequential T_b is then charged from its volume's
  /// disk model — scan fetches in shared mode and NoShare full reads —
  /// while CPU matching (T_m) and index-probe costs stay on the global
  /// model (probes traverse the index, not a data volume). With a uniform
  /// topology every charge is identical to the global model's.
  void set_topology(const storage::StorageTopology* topology) {
    topology_ = topology;
  }

  const storage::DiskModel& disk_model() const { return model_; }
  const EvaluatorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvaluatorStats{}; }
  storage::BucketCache* cache() { return cache_; }

  /// Disk model for bucket `b`'s sequential reads (see set_topology).
  /// Together with ModeledBytes this is T_b, which exec::BatchPipeline
  /// also uses to price prefetch bets.
  const storage::DiskModel& SequentialModelFor(
      storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->ModelFor(b) : model_;
  }

  /// Bytes T_b is charged for moving bucket `b` (see
  /// BucketStore::ModeledBucketBytes).
  uint64_t ModeledBytes(storage::BucketIndex b) const {
    return cache_->store().ModeledBucketBytes(b);
  }

 private:
  storage::BucketCache* cache_;
  const storage::BTreeIndex* index_;
  storage::DiskModel model_;
  HybridConfig config_;
  const storage::StorageTopology* topology_ = nullptr;
  EvaluatorStats stats_;
};

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_EVALUATOR_H_
