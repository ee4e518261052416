// The unified batch-execution pipeline: the paper's core scheduling loop —
// pick a bucket, prefetch the predicted next picks, claim a completed
// prefetch, evaluate the bucket's whole workload queue, account the I/O —
// in one place, so both drivers (core::LifeRaft::ProcessNextBatch and
// sim::SimEngine's shared mode) run the identical loop.
//
// One loop, two I/O modes. Without a reader the pipeline is the
// virtual-clock oracle: every fetch is DiskModel arithmetic and runs are
// bit-reproducible. With a storage::AsyncReader (a constructor argument)
// bets and foreground misses are real reads on the per-volume submission
// queues, and a step's fetch residual is the wall time it blocked on them.
// The modes differ in four private helpers, each holding both variants
// side by side: the residency probe, claiming the pick's bet, placing and
// dropping a bet, and advancing the modeled arm clocks after the join.
//
// Depth-K prefetch: with prefetching enabled the pipeline keeps up to
// `prefetch_depth` predicted buckets in flight per disk arm
// (Scheduler::PeekNextBucketsCovering supplies the predicted service
// order). The pipeline is the only owner of these bets; the bucket cache
// holds only claimed buckets. Modeled bets are arm-clock bookkeeping:
// their fetches serialize per arm — a bet's virtual completion queues
// behind the current batch's disk phase (when they share the arm) and
// behind every earlier bet on its own arm — and the page is read into the
// cache only when the bet is claimed. Measured bets are reads submitted at
// once, overlapping the current batch's join compute. A batch that claims
// its predicted bucket pays only the un-hidden residual
// max(0, fetch_done - now), capped at the bucket's full T_b: a bet queued
// so deep that waiting would exceed a fresh foreground read is charged as
// exactly that read (and hides nothing). The full fetch minus the charged
// residual is credited to prefetch_hidden_ms.
//
// Multi-volume topology (storage::StorageTopology): each volume is an
// independent disk arm with its own bet queue and its own modeled busy
// time. Fetches on different arms overlap each other and the foreground
// batch's disk phase; a batch's foreground I/O contends only with its own
// bucket's arm.
// A dedicated spill arm (StorageTopologyConfig::spill_arm) is one extra
// trailing arm that carries no bets and absorbs spill-restore busy time.
// With a null topology (or one volume) every bucket maps to arm 0.
//
// Mispredictions: an unclaimed bet stays queued on its arm until its
// bucket is scheduled, its modeled completion slipping whenever the
// foreground batch needs its arm. A bet's bucket has pending work (the
// predictor only names such buckets) and keeps it until it is picked, so
// every bet of a completed drain is claimed; only a failed step or an
// abandoned run drops bets (CancelOutstandingPrefetches).
//
// Every step publishes the prediction window to the cache
// (BucketCache::SetPredictionWindow), so eviction demotes predicted
// buckets last; the cache prices its other victims by the arm that would
// re-read them.

#ifndef LIFERAFT_EXEC_BATCH_PIPELINE_H_
#define LIFERAFT_EXEC_BATCH_PIPELINE_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "join/evaluator.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "storage/bucket_cache.h"
#include "storage/topology.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::storage {
class AsyncReader;  // storage/async_io.h
}  // namespace liferaft::storage

namespace liferaft::exec {

/// Knobs of the unified loop, declared once: sim::EngineConfig and
/// core::LifeRaftOptions inherit them.
struct PipelineConfig {
  /// Cross-batch prefetch pipelining (see file comment). Changes the
  /// schedule (prefetched buckets count as resident for phi) but stays
  /// deterministic.
  bool enable_prefetch = false;
  /// Predicted picks kept in flight PER ARM (>= 1).
  size_t prefetch_depth = 1;

  Status Validate() const;
};

/// Everything one pipeline step produced; the driver advances its clock by
/// TotalAdvanceMs() and owns completion/match bookkeeping.
struct StepOutcome {
  storage::BucketIndex bucket = 0;
  /// The disk arm the batch's bucket lives on (0 without a topology).
  storage::VolumeIndex volume = 0;
  join::JoinStrategy strategy = join::JoinStrategy::kScan;
  /// True if the scan path found the bucket resident (phi(i) == 0).
  bool cache_hit = false;
  /// Evaluator cost of the batch (join::BatchResult::cost_ms).
  TimeMs cost_ms = 0.0;
  /// Fetch time charged before the batch: the un-hidden tail of a claimed
  /// prefetch, or in measured mode the wall time spent waiting on a read.
  TimeMs fetch_residual_ms = 0.0;
  /// Sequential I/O for workload segments restored from the spill file.
  TimeMs restore_ms = 0.0;
  join::JoinCounters counters;
  /// Queries whose last outstanding sub-query was in this batch.
  std::vector<query::QueryId> completed;
  /// Matches produced by this batch (all batch queries interleaved).
  std::vector<query::Match> matches;

  /// Total virtual time this step consumes.
  TimeMs TotalAdvanceMs() const {
    return fetch_residual_ms + cost_ms + restore_ms;
  }
};

/// One archive's pick→prefetch→claim→evaluate→account loop. The pipeline
/// borrows every component (nothing is owned) and keeps only the
/// per-arm prefetch bookkeeping as state; drivers own the completion
/// clock and call Step with their current time.
class BatchPipeline {
 public:
  /// @param scheduler bucket scheduling policy (not owned)
  /// @param manager   workload queues (not owned)
  /// @param evaluator join evaluator layered over the bucket cache (not
  ///                  owned; supplies the cache and prices every fetch
  ///                  with its T_b)
  /// @param config    must Validate()
  /// @param topology  volume map (not owned; may be null = one volume)
  /// @param reader    per-volume submission queues for measured I/O (not
  ///                  owned; null = the modeled oracle). Must outlive the
  ///                  pipeline.
  BatchPipeline(sched::Scheduler* scheduler, query::WorkloadManager* manager,
                join::JoinEvaluator* evaluator, PipelineConfig config,
                const storage::StorageTopology* topology = nullptr,
                storage::AsyncReader* reader = nullptr);

  /// Runs one scheduling step at time `now` (virtual ms; measured mode
  /// charges wall ms). Returns nullopt when no queue has pending work
  /// (outstanding prefetch bets stay pending — work may still arrive for
  /// them). `collect_matches` materializes the batch's match tuples. A
  /// failed spill restore of the picked bucket, or a failed read, returns
  /// its Status.
  Result<std::optional<StepOutcome>> Step(TimeMs now, bool collect_matches);

  /// Drops every outstanding prefetch bet on every arm (end of run /
  /// drain).
  void CancelOutstandingPrefetches();

  /// Fetch time hidden behind compute by claimed prefetches, summed over
  /// all arms (per-arm split in volume_stats()).
  TimeMs prefetch_hidden_ms() const { return prefetch_hidden_ms_; }

  /// Number of disk arms including the dedicated spill arm, if any.
  size_t num_volumes() const { return arms_.size(); }

  /// Per-arm I/O telemetry accumulated so far (index = volume).
  std::vector<storage::VolumeIoStats> volume_stats() const;

  /// Outstanding bets across all arms.
  size_t pending_prefetches() const;

 private:
  /// One outstanding prefetch bet.
  struct PendingPrefetch {
    storage::BucketIndex bucket;
    /// Modeled mode: virtual time at which the fetch completes on its arm
    /// (queued behind the arm's foreground I/O and earlier prefetches).
    /// Zero until AdvanceArmClocks prices the bet, and always in measured
    /// mode.
    TimeMs done_ms = 0.0;
    /// Modeled mode: full fetch cost (T_b of the bucket), for hidden-time
    /// stats.
    TimeMs fetch_ms = 0.0;
  };

  /// One disk arm: its outstanding bets in predicted service order (= that
  /// arm's queue order) and its telemetry.
  struct Arm {
    std::deque<PendingPrefetch> bets;
    storage::VolumeIoStats stats;
  };

  /// Completion-side record of one measured read: filled in by the
  /// submission-queue callback (which the reader invokes on THIS thread,
  /// inside Poll()/Wait() — never on a worker, so no locking). The ticket
  /// guards against a late completion of a dropped-and-resubmitted bet
  /// resurrecting under the same bucket index.
  struct RealBet {
    uint64_t ticket = 0;
    bool completed = false;
    Status status;
    std::shared_ptr<const storage::Bucket> bucket;
    /// Measured submit-to-completion wall latency.
    TimeMs latency_ms = 0.0;
    /// Physical bytes the read moved (encoded page size when known).
    uint64_t bytes = 0;
  };

  /// What claiming the pick's fetch cost the step.
  struct Claim {
    /// Fetch time to charge before the batch.
    TimeMs residual_ms = 0.0;
    /// Fetch latency the claimed bet hid behind earlier compute.
    TimeMs hidden_ms = 0.0;
    /// True if a bet was claimed (not set by a foreground read).
    bool claimed = false;
  };

  // The four places where the I/O modes differ.

  /// Residency probe for the scheduler's phi term at time `now`: resident
  /// in cache, or bet on by a prefetch whose fetch has landed — modeled:
  /// its virtual fetch completed by `now`; measured: its read completed
  /// OK (harvested here). Steering the metric toward the buckets we bet on
  /// makes the prediction self-fulfilling.
  sched::CacheProbe MakeCacheProbe(TimeMs now);
  /// Claims the bet on `pick`: modeled, charges the un-hidden residual and
  /// reads the page through the cache; measured, waits for the read. A
  /// measured miss without a bet is read through the submission queue too.
  Result<Claim> ClaimPick(storage::BucketIndex pick, TimeMs now);
  /// Queues a new bet on `b` on b's arm. Measured mode also submits its
  /// read; a modeled bet is priced by AdvanceArmClocks and read when
  /// claimed.
  void PlaceBet(storage::BucketIndex b);
  /// Forgets the bet on `b`: measured mode drops the read record so a
  /// late completion is discarded (a modeled bet is only its queue
  /// entry). The caller removes it from its arm's queue.
  void DropBet(storage::BucketIndex b);
  /// Modeled mode only: slips the bets on the pick's arm by the batch's
  /// disk phase, prices the `placed[v]` newest bets on every arm, and
  /// records the batch's foreground and spill-restore arm time. Measured
  /// mode does nothing — its physical queues are the arm clocks.
  void AdvanceArmClocks(const StepOutcome& outcome,
                        const join::BatchResult& result,
                        uint64_t restored_bytes,
                        const std::vector<size_t>& placed, TimeMs now);

  /// Measured mode: submits a read of `b` and records it in real_bets_.
  void SubmitRealBet(storage::BucketIndex b);
  /// Measured mode: blocks until the read of `b` completes, harvesting
  /// other arms' completions along the way, then hands the bucket to the
  /// cache. Returns the completion; `*waited_ms` gets the wall wait. A
  /// read that never delivered a bucket (its record is gone, or nothing
  /// is left in flight to wait for) is an Internal error naming `b`.
  Result<RealBet> AwaitRealBet(storage::BucketIndex b, TimeMs* waited_ms);

  storage::VolumeIndex VolumeOf(storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->VolumeOf(b) : 0;
  }

  sched::Scheduler* scheduler_;
  query::WorkloadManager* manager_;
  join::JoinEvaluator* evaluator_;
  storage::BucketCache* cache_;
  const storage::StorageTopology* topology_;
  /// Measured-mode submission queues (null = modeled). Not owned.
  storage::AsyncReader* reader_;
  PipelineConfig config_;

  /// One entry per bucket volume (exactly one without a topology), plus a
  /// trailing bet-less entry for the spill arm when the topology
  /// dedicates one.
  std::vector<Arm> arms_;
  /// Arms [0, bucket_volumes_) own buckets; a spill arm, if present, is
  /// arms_[bucket_volumes_].
  size_t bucket_volumes_ = 1;
  TimeMs prefetch_hidden_ms_ = 0.0;
  /// Last window published to the cache (skip republishing unchanged
  /// windows — a swap rebuilds the cache's window set under its lock).
  std::vector<storage::BucketIndex> last_window_;

  /// Measured mode: outstanding reads by bucket. Arm queues carry the bet
  /// ORDER; this map carries the completions.
  std::unordered_map<storage::BucketIndex, RealBet> real_bets_;
  WallClock wall_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_BATCH_PIPELINE_H_
