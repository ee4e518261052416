#include "exec/batch_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <string>

#include "join/hybrid.h"
#include "storage/async_io.h"
#include "storage/bucket.h"

namespace liferaft::exec {

Status PipelineConfig::Validate() const {
  if (prefetch_depth == 0) {
    return Status::InvalidArgument("prefetch_depth must be >= 1");
  }
  return Status::OK();
}

BatchPipeline::BatchPipeline(sched::Scheduler* scheduler,
                             query::WorkloadManager* manager,
                             join::JoinEvaluator* evaluator,
                             PipelineConfig config,
                             const storage::StorageTopology* topology,
                             storage::AsyncReader* reader)
    : scheduler_(scheduler),
      manager_(manager),
      evaluator_(evaluator),
      cache_(evaluator != nullptr ? evaluator->cache() : nullptr),
      topology_(topology),
      reader_(reader),
      config_(config) {
  assert(scheduler_ != nullptr);
  assert(manager_ != nullptr);
  assert(evaluator_ != nullptr);
  assert(cache_ != nullptr);
  assert(config_.Validate().ok());
  bucket_volumes_ = topology_ != nullptr ? topology_->num_volumes() : 1;
  const bool spill_arm = topology_ != nullptr && topology_->has_spill_arm();
  // The spill arm (when present) is the trailing entry: it carries no
  // bets, only telemetry for restore I/O.
  arms_.resize(bucket_volumes_ + (spill_arm ? 1 : 0));
}

sched::CacheProbe BatchPipeline::MakeCacheProbe(TimeMs now) {
  if (reader_ != nullptr) {
    // Harvest whatever the queues finished since the last step so the
    // probe sees completed bets.
    reader_->Poll();
    return [this](storage::BucketIndex b) {
      if (cache_->Contains(b)) return true;
      auto it = real_bets_.find(b);
      return it != real_bets_.end() && it->second.completed &&
             it->second.status.ok();
    };
  }
  return [this, now](storage::BucketIndex b) {
    if (cache_->Contains(b)) return true;
    // A bucket only ever bets on its own arm, but scanning every arm keeps
    // the probe independent of the placement map.
    for (const Arm& arm : arms_) {
      for (const PendingPrefetch& p : arm.bets) {
        if (p.bucket == b && p.done_ms <= now) return true;
      }
    }
    return false;
  };
}

size_t BatchPipeline::pending_prefetches() const {
  size_t total = 0;
  for (const Arm& arm : arms_) total += arm.bets.size();
  return total;
}

std::vector<storage::VolumeIoStats> BatchPipeline::volume_stats() const {
  std::vector<storage::VolumeIoStats> stats;
  stats.reserve(arms_.size());
  for (const Arm& arm : arms_) stats.push_back(arm.stats);
  return stats;
}

Result<std::optional<StepOutcome>> BatchPipeline::Step(TimeMs now,
                                                      bool collect_matches) {
  // Prefetch bookkeeping spans only the bucket arms; the spill arm (the
  // trailing entry, when present) never carries bets.
  const size_t volumes = bucket_volumes_;

  const sched::CacheProbe cached = MakeCacheProbe(now);
  std::optional<storage::BucketIndex> pick =
      scheduler_->PickBucket(*manager_, now, cached);
  if (!pick.has_value()) return std::optional<StepOutcome>{};

  StepOutcome outcome;
  outcome.bucket = *pick;
  outcome.volume = VolumeOf(*pick);
  Arm& pick_arm = arms_[outcome.volume];
  uint64_t restored_bytes = 0;
  LIFERAFT_ASSIGN_OR_RETURN(
      std::vector<query::WorkloadEntry> entries,
      manager_->TakeBucket(*pick, &outcome.completed, &restored_bytes));

  LIFERAFT_ASSIGN_OR_RETURN(Claim claim, ClaimPick(*pick, now));
  outcome.fetch_residual_ms = claim.residual_ms;
  if (claim.claimed) {
    prefetch_hidden_ms_ += claim.hidden_ms;
    pick_arm.stats.hidden_ms += claim.hidden_ms;
    ++pick_arm.stats.prefetch_claims;
  }

  // Predict the next picks and bet on them now (measured mode starts their
  // reads, overlapping the join below); their modeled fetch times are
  // assigned after the evaluation, when this batch's disk phase is known.
  // The prediction is refreshed every live step — the window drives
  // eviction protection, and a stale window would protect yesterday's
  // predictions — and peeks `depth` buckets deep for EVERY arm, so an arm
  // the front of the prediction does not touch still gets its fetches
  // started. An arm never holds more than `depth` bets, so the peek also
  // covers every outstanding bet.
  std::vector<size_t> placed(volumes, 0);
  if (config_.enable_prefetch) {
    const size_t depth = config_.prefetch_depth;
    const std::vector<size_t> want(volumes, depth);
    std::vector<storage::BucketIndex> predicted =
        scheduler_->PeekNextBucketsCovering(
            *manager_, now, cached,
            [this](storage::BucketIndex b) { return VolumeOf(b); }, want);
    // Publish the window so eviction demotes predicted buckets last.
    // Skipped when unchanged: a swap rebuilds the cache's window set
    // under its lock.
    if (predicted != last_window_) {
      cache_->SetPredictionWindow(predicted);
      last_window_ = predicted;
    }
    // Fill every arm up to the depth, walking the global predicted
    // service order so each arm's queue stays in that order.
    for (storage::BucketIndex b : predicted) {
      const storage::VolumeIndex v = VolumeOf(b);
      const std::deque<PendingPrefetch>& bets = arms_[v].bets;
      if (bets.size() >= depth) continue;
      if (cache_->Contains(b)) continue;
      const bool already_queued =
          std::any_of(bets.begin(), bets.end(),
                      [&](const PendingPrefetch& p) { return p.bucket == b; });
      if (already_queued) continue;
      PlaceBet(b);
      ++placed[v];
    }
  }

  Result<join::BatchResult> evaluated =
      evaluator_->EvaluateBucket(*pick, entries, collect_matches);
  if (!evaluated.ok()) {
    // The bets placed above have no modeled times yet; drop them before
    // surfacing the error so no read is orphaned.
    for (size_t v = 0; v < volumes; ++v) {
      for (; placed[v] > 0; --placed[v]) {
        DropBet(arms_[v].bets.back().bucket);
        arms_[v].bets.pop_back();
      }
    }
    return evaluated.status();
  }
  join::BatchResult result = std::move(*evaluated);
  // Fetching spilled workload segments back from disk is sequential I/O.
  // The spill file is run-scoped scratch, costed with the default
  // (evaluator) model rather than any volume's. In measured mode the
  // restore already happened physically inside TakeBucket, so this is
  // telemetry only.
  outcome.restore_ms =
      restored_bytes > 0
          ? evaluator_->disk_model().SequentialReadMs(restored_bytes)
          : 0.0;
  AdvanceArmClocks(outcome, result, restored_bytes, placed, now);

  outcome.strategy = result.strategy;
  outcome.cache_hit = result.cache_hit;
  outcome.cost_ms = result.cost_ms;
  outcome.counters = result.counters;
  outcome.matches = std::move(result.matches);
  return std::optional<StepOutcome>(std::move(outcome));
}

Result<BatchPipeline::Claim> BatchPipeline::ClaimPick(
    storage::BucketIndex pick, TimeMs now) {
  // A claimed bet makes the bucket resident, and the evaluator always
  // scans a resident bucket. A bucket bets only on its own arm, so only
  // that arm's queue can hold the bet.
  Arm& arm = arms_[VolumeOf(pick)];
  auto bet = std::find_if(
      arm.bets.begin(), arm.bets.end(),
      [&](const PendingPrefetch& p) { return p.bucket == pick; });
  Claim claim;
  if (reader_ == nullptr) {
    if (bet == arm.bets.end()) return claim;
    // The claim reads the page into the cache (billing the store for it
    // now: an unclaimed bet never reaches the store's ledger), so the
    // evaluator sees a hit, charging no T_b, and the clock is charged only
    // the un-hidden tail of the modeled fetch. At depth > 1 a bet can
    // still be queued behind its arm when its bucket comes up (modeled
    // residual >= its full T_b); waiting out that whole queue would cost
    // more than a plain foreground read, so the charge is capped at T_b —
    // as if the arm preempted the backlog and fetched the bucket fresh. A
    // capped claim hides nothing. (At depth 1 the residual is at most T_b
    // minus the previous batch's matching time, so the cap never binds.)
    claim.residual_ms = std::min(std::max(0.0, bet->done_ms - now),
                                 bet->fetch_ms);
    claim.hidden_ms = bet->fetch_ms - claim.residual_ms;
    claim.claimed = true;
    arm.bets.erase(bet);
    LIFERAFT_RETURN_IF_ERROR(cache_->Get(pick).status());
    return claim;
  }
  if (bet != arm.bets.end()) {
    // Block until the bet's read completes: the measured wait is the
    // residual, and latency already spent behind earlier steps' compute
    // is the hidden time.
    arm.bets.erase(bet);
    LIFERAFT_ASSIGN_OR_RETURN(RealBet read,
                              AwaitRealBet(pick, &claim.residual_ms));
    claim.hidden_ms = std::max(0.0, read.latency_ms - claim.residual_ms);
    claim.claimed = true;
    arm.stats.busy_ms += read.latency_ms;
    return claim;
  }
  if (cache_->Contains(pick)) return claim;
  // Foreground miss: route it through the same submission queue as the
  // bets so it physically serializes behind them on the bucket's own
  // volume, and charge the measured blocked time.
  SubmitRealBet(pick);
  LIFERAFT_ASSIGN_OR_RETURN(RealBet read,
                            AwaitRealBet(pick, &claim.residual_ms));
  arm.stats.busy_ms += read.latency_ms;
  ++arm.stats.foreground_reads;
  arm.stats.foreground_bytes += read.bytes;
  return claim;
}

void BatchPipeline::PlaceBet(storage::BucketIndex b) {
  if (reader_ != nullptr) SubmitRealBet(b);
  Arm& arm = arms_[VolumeOf(b)];
  arm.bets.push_back(PendingPrefetch{b});
  ++arm.stats.prefetch_issued;
}

void BatchPipeline::DropBet(storage::BucketIndex b) {
  if (reader_ != nullptr) real_bets_.erase(b);
}

void BatchPipeline::AdvanceArmClocks(const StepOutcome& outcome,
                                     const join::BatchResult& result,
                                     uint64_t restored_bytes,
                                     const std::vector<size_t>& placed,
                                     TimeMs now) {
  if (reader_ != nullptr) return;
  // Independent arms: bets still in flight on the batch's own arm yield
  // that arm to the foreground I/O — their completion slips by however
  // long the arm was busy here — while bets on other arms run concurrently
  // with the whole batch and slip nothing. New fetches queue behind their
  // own arm only: behind this batch's foreground phase plus earlier bets
  // on the batch's arm, behind just the earlier bets elsewhere — fetches
  // never overlap fetches on the same arm's clock, and always overlap
  // across arms. The claimed residual does NOT slip the survivors: a bet
  // queued behind the claimed fetch already counted that fetch in its own
  // done time (slipping it again would double-charge the arm), and a bet
  // queued ahead of it finishes within the residual wait by construction.
  // Only the batch's own disk phase (scan I/O + spill restores) is arm
  // time the queue never anticipated. (Sums run left-to-right from `now`
  // in a fixed order, so modeled runs are bit-reproducible.)
  //
  // With a dedicated spill arm, restore I/O moves off the bucket arm: the
  // batch still waits out the restore before its CPU phase (the join
  // needs the restored objects, so foreground_done_ms — and with it the
  // driver's clock — is charged identically), but the bucket arm frees as
  // soon as its own scan I/O ends, so bets neither slip by the restore
  // nor queue new fetches behind it.
  const bool restore_on_spill_arm =
      outcome.restore_ms > 0.0 && arms_.size() > bucket_volumes_;
  const TimeMs unanticipated_disk_ms =
      restore_on_spill_arm ? result.io_ms
                           : result.io_ms + outcome.restore_ms;
  const TimeMs foreground_done_ms =
      now + outcome.fetch_residual_ms + result.io_ms + outcome.restore_ms;
  const TimeMs pick_arm_done_ms =
      restore_on_spill_arm
          ? now + outcome.fetch_residual_ms + result.io_ms
          : foreground_done_ms;
  for (size_t v = 0; v < bucket_volumes_; ++v) {
    Arm& arm = arms_[v];
    TimeMs arm_free_ms = v == outcome.volume ? pick_arm_done_ms : now;
    // The `placed[v]` newest bets were placed this step and are unpriced.
    const auto fresh =
        arm.bets.end() - static_cast<std::ptrdiff_t>(placed[v]);
    for (auto p = arm.bets.begin(); p != fresh; ++p) {
      if (v == outcome.volume &&
          p->done_ms > now + outcome.fetch_residual_ms) {
        p->done_ms += unanticipated_disk_ms;
      }
      arm_free_ms = std::max(arm_free_ms, p->done_ms);
    }
    for (auto p = fresh; p != arm.bets.end(); ++p) {
      p->fetch_ms = evaluator_->SequentialModelFor(p->bucket)
                        .SequentialReadMs(evaluator_->ModeledBytes(p->bucket));
      arm_free_ms += p->fetch_ms;
      p->done_ms = arm_free_ms;
      arm.stats.busy_ms += p->fetch_ms;
    }
    arm.stats.busy_until_ms = std::max(arm.stats.busy_until_ms, arm_free_ms);
  }

  // Per-arm telemetry for the batch's own arm: its foreground disk phase
  // (scan or probe I/O plus spill restores) and its consumed-work clock —
  // the completion clock always runs at or ahead of this (the batch's CPU
  // phase follows), so the run's max-over-arms makespan is well defined.
  Arm& pick_arm = arms_[outcome.volume];
  pick_arm.stats.busy_ms += unanticipated_disk_ms;
  pick_arm.stats.consumed_until_ms =
      std::max(pick_arm.stats.consumed_until_ms, pick_arm_done_ms);
  if (result.strategy == join::JoinStrategy::kScan && !result.cache_hit) {
    ++pick_arm.stats.foreground_reads;
    pick_arm.stats.foreground_bytes += evaluator_->ModeledBytes(outcome.bucket);
  }
  if (restore_on_spill_arm) {
    // The restore occupies the spill arm from the end of the batch's scan
    // phase to foreground_done_ms; restores serialize trivially since the
    // driver's clock passes foreground_done_ms before the next step.
    Arm& spill = arms_.back();
    spill.stats.busy_ms += outcome.restore_ms;
    ++spill.stats.foreground_reads;
    spill.stats.foreground_bytes += restored_bytes;
    spill.stats.consumed_until_ms =
        std::max(spill.stats.consumed_until_ms, foreground_done_ms);
    spill.stats.busy_until_ms =
        std::max(spill.stats.busy_until_ms, foreground_done_ms);
  }
}

void BatchPipeline::SubmitRealBet(storage::BucketIndex b) {
  // The completion callback runs on THIS thread, inside the reader's
  // Poll()/Wait() — never concurrently — so real_bets_ needs no lock. The
  // ticket check drops a late completion whose bet was already dropped
  // (and possibly resubmitted under the same bucket index).
  const uint64_t ticket = reader_->SubmitRead(
      b, [this](const storage::AsyncReadCompletion& c) {
        auto it = real_bets_.find(c.index);
        if (it == real_bets_.end() || it->second.ticket != c.ticket) return;
        it->second.completed = true;
        it->second.status = c.status;
        it->second.bucket = c.bucket;
        it->second.latency_ms = c.latency_ms;
        it->second.bytes = c.bytes;
      });
  RealBet slot;
  slot.ticket = ticket;
  real_bets_[b] = std::move(slot);
}

Result<BatchPipeline::RealBet> BatchPipeline::AwaitRealBet(
    storage::BucketIndex b, TimeMs* waited_ms) {
  const TimeMs t0 = wall_.NowMs();
  auto it = real_bets_.find(b);
  // Wait() parks until ANY completion arrives; completions for other
  // arms' bets delivered along the way are the overlap this mode
  // measures. The in_flight guard stops a wait on a read the queues no
  // longer know about.
  while (it != real_bets_.end() && !it->second.completed) {
    if (reader_->Wait() == 0 && reader_->in_flight() == 0) break;
    it = real_bets_.find(b);
  }
  *waited_ms = wall_.NowMs() - t0;
  if (it == real_bets_.end() || !it->second.completed) {
    if (it != real_bets_.end()) real_bets_.erase(it);
    return Status::Internal("read of bucket " + std::to_string(b) +
                            " never completed");
  }
  RealBet read = std::move(it->second);
  real_bets_.erase(it);
  if (!read.status.ok()) return read.status;
  if (read.bucket == nullptr) {
    return Status::Internal("read of bucket " + std::to_string(b) +
                            " completed without a bucket");
  }
  cache_->Put(b, read.bucket);
  cache_->mutable_store()->RecordPrefetchedRead(*read.bucket);
  return read;
}

void BatchPipeline::CancelOutstandingPrefetches() {
  for (Arm& arm : arms_) {
    for (const PendingPrefetch& p : arm.bets) DropBet(p.bucket);
    arm.bets.clear();
  }
  // Measured bets' records are gone, so late completions fail the ticket
  // lookup. Drain the queues so no worker still references the store
  // when the caller tears down.
  if (reader_ != nullptr) reader_->Drain();
  // End of run: no prediction is live, so stop protecting anything.
  cache_->SetPredictionWindow({});
  last_window_.clear();
}

}  // namespace liferaft::exec
