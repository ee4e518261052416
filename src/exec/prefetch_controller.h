// Feedback-driven controller for the cross-batch prefetch depth.
//
// The depth-K prefetch pipeline (exec::BatchPipeline) is a bet: every
// queued prefetch pins cache space and claims future disk-arm time on the
// strength of Scheduler::PeekNextBuckets' prediction. A fixed K is wrong
// in both directions — too shallow wastes hidable fetch latency when the
// predictor is accurate (steady saturated drains), too deep turns into
// wasted reads and pinned-garbage cache pressure when the prediction
// window churns (bursty arrivals, alpha near 1, adversarial traces). The
// CRAM lesson from the IP-lookup literature applies: cache policy has to
// be tuned to the access predictor, not bolted on generically.
//
// This controller closes the loop with two EWMAs fed by every pipeline
// step:
//  * stale rate — the fraction of resolved bets that paid off nothing: a
//    bet dropped because its bucket left the prediction window, or a claim
//    whose modeled residual was capped at the full fetch (queued so deep
//    the claim hid zero latency);
//  * hidden-ms per claim — the average fetch latency a claimed bet
//    actually hid behind compute.
// Depth shrinks while the stale EWMA is above `shrink_threshold` (a
// mispredict burst drives it there within a few steps) and grows — up to
// `max_depth` — while the stale EWMA is below `grow_threshold` AND hidden
// time per claim stays positive, i.e. while deeper bets demonstrably buy
// hidden latency. At depth 0 prefetching is fully off; after
// `probe_period` quiet steps the controller re-probes at depth 1 so a
// recovered predictor can climb back up. All inputs are virtual-clock
// quantities and step counts, so the trajectory is deterministic.
//
// Wasted bytes as a grow cost term: dropped bets have a direct cost (the
// arm spent the bucket's fetch and nothing used it — the arm ledger's
// VolumeIoStats::prefetch_wasted_bytes) that the stale *rate* alone can
// understate: a workload can keep the stale fraction under grow_threshold
// while every individual mispredict burns a full bucket of bandwidth. The
// controller therefore also tracks an EWMA of wasted bytes per step and
// vetoes growth while it exceeds `grow_max_wasted_bytes` — sustained
// waste stalls the climb even when the rate signal looks clean (shrinking
// stays governed by the rate/burst rules). A run with zero waste behaves
// exactly as before the term existed.
//
// The controller is deliberately standalone (no pipeline types): the unit
// tests drive it with scripted feedback sequences, and the pipeline is
// just one producer of PrefetchFeedback.

#ifndef LIFERAFT_EXEC_PREFETCH_CONTROLLER_H_
#define LIFERAFT_EXEC_PREFETCH_CONTROLLER_H_

#include <cstddef>
#include <cstdint>

#include "util/clock.h"
#include "util/status.h"

namespace liferaft::exec {

/// Tuning of the adaptive depth loop. Defaults favor stability: grow only
/// on clearly clean signal, shrink decisively on bursts.
struct PrefetchControllerConfig {
  /// Depth ceiling (>= 1); the floor is always 0 (prefetch off).
  size_t max_depth = 4;
  /// Starting depth, clamped to [0, max_depth].
  size_t initial_depth = 2;
  /// EWMA smoothing factor in (0, 1]: weight of the newest step's
  /// observation. Higher = faster reaction, noisier.
  double ewma_alpha = 0.35;
  /// Shrink depth while the stale-rate EWMA is at or above this.
  double shrink_threshold = 0.5;
  /// Grow depth only while the stale-rate EWMA is at or below this.
  double grow_threshold = 0.15;
  /// Steps between depth adjustments (damping against oscillation).
  size_t adjust_period = 2;
  /// Steps to sit at depth 0 before re-probing at depth 1.
  size_t probe_period = 8;
  /// Growth is vetoed while the wasted-bytes-per-step EWMA exceeds this
  /// (canceled-after-fetch physical bytes; see file comment). The default
  /// is a quarter of a modeled 4 MB bucket — sustained per-step waste of
  /// a bucket-sized read stalls the climb within a few steps, while
  /// isolated mispredicts decay below it. Zero waste never vetoes.
  uint64_t grow_max_wasted_bytes = 1024 * 1024;

  Status Validate() const;
};

/// One pipeline step's resolved prefetch bets.
struct PrefetchFeedback {
  /// Bets claimed by the batch that bet on them.
  uint32_t claims = 0;
  /// Claims whose residual was capped at the full fetch — physically
  /// reused, but the bet hid zero latency (stale by depth).
  uint32_t stale_claims = 0;
  /// Bets dropped because their bucket left the prediction window.
  uint32_t cancels = 0;
  /// Fetch latency hidden by this step's claims (virtual ms).
  TimeMs hidden_ms = 0.0;
  /// Bytes of the bets this step dropped without a claim, as returned by
  /// the pipeline's drops (this arm's prefetch_wasted_bytes delta):
  /// modeled bytes in the modeled oracle, so adaptive runs stay
  /// deterministic there; bytes actually read in measured mode.
  uint64_t wasted_bytes = 0;
};

/// Running tallies for reports and tests.
struct PrefetchControllerStats {
  uint64_t steps = 0;
  uint64_t shrinks = 0;
  uint64_t grows = 0;
  uint64_t probes = 0;
  /// Grow decisions vetoed by the wasted-bytes cost term alone.
  uint64_t grows_vetoed_on_waste = 0;
};

class PrefetchController {
 public:
  /// `config` must Validate(); the constructor clamps initial_depth.
  explicit PrefetchController(PrefetchControllerConfig config);

  /// Feeds one pipeline step's resolved bets and advances the depth
  /// decision. Call exactly once per step, including steps that resolved
  /// nothing (the probe timer counts them).
  void Observe(const PrefetchFeedback& feedback);

  /// Prefetch depth the pipeline should use for the next step.
  size_t depth() const { return depth_; }

  double stale_ewma() const { return stale_ewma_; }
  double hidden_per_claim_ewma() const { return hidden_ewma_; }
  double wasted_bytes_ewma() const { return waste_ewma_; }
  const PrefetchControllerStats& stats() const { return stats_; }
  const PrefetchControllerConfig& config() const { return config_; }

 private:
  PrefetchControllerConfig config_;
  size_t depth_;
  /// EWMA of the per-step stale fraction over steps that resolved bets.
  double stale_ewma_ = 0.0;
  /// EWMA of hidden ms per claim over steps that claimed bets.
  double hidden_ewma_ = 0.0;
  /// EWMA of wasted bytes per step, over every step (waste is usually 0).
  double waste_ewma_ = 0.0;
  bool saw_resolution_ = false;
  /// Steps since the last depth change (adjustment + probe damping).
  size_t steps_since_change_ = 0;
  PrefetchControllerStats stats_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_PREFETCH_CONTROLLER_H_
