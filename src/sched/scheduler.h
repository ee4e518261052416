// Bucket-scheduler interface: given the current workload queues, pick the
// next bucket whose whole queue the Join Evaluator should service. LifeRaft,
// the round-robin baseline, and any future policy implement this; the
// per-query baselines (NoShare, IndexOnly) bypass bucket scheduling and are
// modes of the simulation engine instead.

#ifndef LIFERAFT_SCHED_SCHEDULER_H_
#define LIFERAFT_SCHED_SCHEDULER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "query/workload.h"
#include "storage/bucket.h"
#include "util/clock.h"

namespace liferaft::storage {
class StorageTopology;
}  // namespace liferaft::storage

namespace liferaft::sched {

/// Residency probe: phi(i) == 0 iff cached(i). Decouples schedulers from
/// the concrete cache type.
using CacheProbe = std::function<bool(storage::BucketIndex)>;

/// Strategy interface for choosing the next bucket batch.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Display name for reports (e.g. "liferaft(a=0.25)", "rr").
  virtual std::string name() const = 0;

  /// Attaches the storage topology so cost-based policies can price T_b
  /// with the disk model of the volume a bucket actually lives on
  /// (heterogeneous volume_disk makes T_b placement-dependent). The
  /// engines call this during setup; `topology` must outlive scheduling
  /// (may be null = single global model). Default: ignore — policies that
  /// never look at disk cost need no topology.
  virtual void AttachTopology(const storage::StorageTopology* topology) {
    (void)topology;
  }

  /// Picks the bucket to service next, or nullopt when no queue is
  /// non-empty. Must only return buckets in manager.active_buckets().
  virtual std::optional<storage::BucketIndex> PickBucket(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached) = 0;

  /// Previews the next `k` picks for the given state WITHOUT mutating any
  /// scheduler state — the prediction hook of the depth-K cross-batch
  /// prefetch pipeline (exec::BatchPipeline peeks at the likely next
  /// buckets while the current batch computes and starts their fetches
  /// early). The contract:
  ///  * element 0, when present, is exactly what PickBucket would return
  ///    for the same queues/clock/cache;
  ///  * element j predicts the pick after the first j predictions have
  ///    been served (their queues drained), so elements are distinct and
  ///    ordered by predicted service order;
  ///  * fewer than `k` elements are returned when fewer buckets have
  ///    pending work.
  /// The default declines to predict, which disables pipelining for the
  /// policy.
  virtual std::vector<storage::BucketIndex> PeekNextBuckets(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached, size_t k) const {
    (void)manager;
    (void)now;
    (void)cached;
    (void)k;
    return {};
  }

  /// Multi-volume prediction hook: the same predicted service order
  /// PeekNextBuckets yields, peeked deep enough that every volume v is
  /// represented by at least `want_per_volume[v]` of its own buckets —
  /// exposing per-volume candidates so the prefetch pipeline can keep
  /// every disk arm busy, not just the arms the front of the prediction
  /// happens to touch. `volume_of` maps a bucket to its volume (indices
  /// < want_per_volume.size()). The peek widens geometrically until
  /// coverage holds or the policy runs out of candidates, so the result
  /// is always a prefix-consistent extension of the plain peek: with one
  /// volume wanting k this is exactly PeekNextBuckets(k).
  ///
  /// Virtual so a policy whose per-prediction ranking is expensive can
  /// supply an equivalent implementation (see LifeRaftScheduler, which
  /// prices candidates once); an override must return the bit-identical
  /// sequence this reference loop would.
  virtual std::vector<storage::BucketIndex> PeekNextBucketsCovering(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached,
      const std::function<uint32_t(storage::BucketIndex)>& volume_of,
      const std::vector<size_t>& want_per_volume) const {
    // Cap every volume's want by the candidates it can actually supply —
    // asking for more than an arm has pending would make coverage
    // unsatisfiable and drive the widening loop into a full re-ranking of
    // every active bucket on every call (a drained arm is the common
    // end-of-run state). The returned *content* is unchanged: a peek
    // never yields more of a volume than its active buckets anyway.
    std::vector<size_t> want = want_per_volume;
    {
      std::vector<size_t> available(want.size(), 0);
      for (storage::BucketIndex b : manager.active_buckets()) {
        ++available[volume_of(b)];
      }
      for (size_t v = 0; v < want.size(); ++v) {
        want[v] = std::min(want[v], available[v]);
      }
    }
    size_t k = 0;
    for (size_t w : want) k += w;
    if (k == 0) return {};
    for (;;) {
      std::vector<storage::BucketIndex> predicted =
          PeekNextBuckets(manager, now, cached, k);
      // Fewer than asked: every candidate with pending work is already
      // included, so no wider peek can improve coverage.
      if (predicted.size() < k) return predicted;
      std::vector<size_t> have(want.size(), 0);
      for (storage::BucketIndex b : predicted) ++have[volume_of(b)];
      bool covered = true;
      for (size_t v = 0; v < want.size(); ++v) {
        if (have[v] < want[v]) {
          covered = false;
          break;
        }
      }
      if (covered) return predicted;
      k *= 2;
    }
  }
};

}  // namespace liferaft::sched

#endif  // LIFERAFT_SCHED_SCHEDULER_H_
