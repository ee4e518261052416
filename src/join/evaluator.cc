#include "join/evaluator.h"

#include <cassert>

namespace liferaft::join {
namespace {

uint64_t CountObjects(const std::vector<query::WorkloadEntry>& batch) {
  uint64_t n = 0;
  for (const auto& e : batch) n += e.objects.size();
  return n;
}

}  // namespace

JoinEvaluator::JoinEvaluator(storage::BucketCache* cache,
                             const storage::BTreeIndex* index,
                             storage::DiskModel model, HybridConfig config)
    : cache_(cache), index_(index), model_(model), config_(config) {
  assert(cache_ != nullptr);
}

Result<BatchResult> JoinEvaluator::EvaluateBucket(
    storage::BucketIndex bucket,
    const std::vector<query::WorkloadEntry>& batch, bool collect_matches) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty batch for bucket " +
                                   std::to_string(bucket));
  }
  BatchResult result;
  const uint64_t queue_objects = CountObjects(batch);
  const bool cached = cache_->Contains(bucket);
  const uint64_t bucket_objects =
      cache_->store().BucketObjectCount(bucket);

  result.strategy =
      (index_ == nullptr)
          ? JoinStrategy::kScan
          : ChooseStrategy(config_, queue_objects, bucket_objects, cached);

  std::vector<query::Match>* out = collect_matches ? &result.matches
                                                   : nullptr;
  if (result.strategy == JoinStrategy::kScan) {
    // Pull the bucket through the cache: a miss reads from the store and
    // pays T_b; a hit pays only the in-memory matching term.
    LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Bucket> b,
                              cache_->Get(bucket));
    result.cache_hit = cached;
    // T_b from the bucket's volume (identical to model_ when the topology
    // is uniform or absent); T_m stays global — matching is CPU.
    result.io_ms = cached ? 0.0
                          : SequentialModelFor(bucket).SequentialReadMs(
                                ModeledBytes(bucket));
    result.cpu_ms = model_.MatchMs(queue_objects);
    result.cost_ms = result.io_ms + result.cpu_ms;
    result.counters = MergeCrossMatch(*b, batch, out);
    ++stats_.scan_batches;
  } else {
    // Indexed path: per-object random probes; the bucket itself is never
    // materialized, so the cache is untouched (the paper's age-biased
    // scheduler leans on this to serve uncached buckets cheaply).
    const htm::IdRange range = cache_->store().bucket_map().RangeOf(bucket);
    const IndexedJoinCounters counters =
        IndexedCrossMatch(*index_, range, batch, out);
    result.cache_hit = false;
    result.io_ms = model_.IndexedProbesMs(queue_objects);
    result.cpu_ms = model_.MatchMs(queue_objects);
    result.cost_ms = result.io_ms + result.cpu_ms;
    result.counters = counters.join;
    stats_.index_probes += counters.probes;
    ++stats_.indexed_batches;
  }
  ++stats_.batches;
  stats_.total_cost_ms += result.cost_ms;
  return result;
}

Result<PerQueryResult> JoinEvaluator::EvaluatePerQuery(
    PerQueryMode mode, const PerQueryWork& work, bool collect_matches) {
  if (mode == PerQueryMode::kIndexProbes && index_ == nullptr) {
    return Status::FailedPrecondition("index probes require an index");
  }
  PerQueryResult result;
  // Materialized matches are per-query scratch (counts are the result).
  std::vector<query::Match> out;
  std::vector<query::Match>* outp = collect_matches ? &out : nullptr;
  for (const query::BucketWorkload& w : *work.workloads) {
    query::WorkloadEntry entry;
    entry.query_id = work.query_id;
    entry.arrival_ms = work.arrival_ms;
    entry.predicate = work.predicate;
    entry.objects = w.objects;
    const std::vector<query::WorkloadEntry> batch = {std::move(entry)};
    if (mode == PerQueryMode::kNoShareScan) {
      // Independent evaluation: no shared cache, pay full T_b + T_m. The
      // bucket drops at the end of the iteration, so a materializing store
      // holds one bucket at a time.
      LIFERAFT_ASSIGN_OR_RETURN(
          std::shared_ptr<const storage::Bucket> b,
          cache_->mutable_store()->ReadBucket(w.bucket));
      JoinCounters counters = MergeCrossMatch(*b, batch, outp);
      result.matches += counters.output_matches;
      // Full T_b from the bucket's volume, T_m global (see set_topology).
      result.cost_ms += SequentialModelFor(w.bucket).SequentialReadMs(
                            ModeledBytes(w.bucket)) +
                        model_.MatchMs(w.objects.size());
    } else {
      // Legacy index-exclusive execution (paper §5): every probe pays a
      // cold root-to-leaf descent plus a heap row fetch — height + 2
      // random I/Os per probe.
      const htm::IdRange range =
          cache_->store().bucket_map().RangeOf(w.bucket);
      IndexedJoinCounters counters =
          IndexedCrossMatch(*index_, range, batch, outp);
      result.matches += counters.join.output_matches;
      uint64_t ios_per_probe = static_cast<uint64_t>(index_->height()) + 2;
      result.cost_ms +=
          model_.IndexedProbesMs(counters.probes * ios_per_probe) +
          model_.MatchMs(counters.join.workload_objects);
    }
  }
  return result;
}

}  // namespace liferaft::join
