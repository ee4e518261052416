// The LifeRaft scheduler (paper §3.2–3.3): ranks the buckets with pending
// work by the aged workload throughput metric and services the best one.
// alpha = 0 is the greedy most-contentious-data-first policy; alpha = 1
// serves buckets by oldest pending request (arrival order); intermediate
// settings trade throughput for response time.

#ifndef LIFERAFT_SCHED_LIFERAFT_SCHEDULER_H_
#define LIFERAFT_SCHED_LIFERAFT_SCHEDULER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sched/metric.h"
#include "sched/qos.h"
#include "sched/scheduler.h"
#include "storage/bucket_store.h"
#include "storage/disk_model.h"

namespace liferaft::sched {

/// LifeRaft scheduler configuration.
struct LifeRaftConfig {
  /// Age bias in [0, 1] (paper's alpha).
  double alpha = 0.0;
  /// How U_t and A are blended (see metric.h).
  MetricNormalization normalization = MetricNormalization::kNormalized;
  /// Optional QoS age weighting (paper §6 future work); disabled by
  /// default.
  QosConfig qos;
};

/// Aged-workload-throughput scheduler.
class LifeRaftScheduler : public Scheduler {
 public:
  /// @param store  supplies bucket sizes for the T_b term (not owned)
  /// @param model  disk cost model
  LifeRaftScheduler(const storage::BucketStore* store,
                    storage::DiskModel model, LifeRaftConfig config);

  std::string name() const override;

  /// Prices T_b per volume when a heterogeneous topology is attached (see
  /// sched::WorkloadThroughputOnVolume); uniform or null topologies keep
  /// the single-model ranking bit-for-bit.
  void AttachTopology(const storage::StorageTopology* topology) override {
    topology_ = topology;
  }

  std::optional<storage::BucketIndex> PickBucket(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached) override;

  /// The metric ranking is stateless, so the preview is exact at depth 1:
  /// element 0 is precisely what PickBucket would pick for the same
  /// queues/clock/cache. Deeper elements re-rank the remaining buckets
  /// with the earlier predictions excluded (their queues assumed drained),
  /// re-normalizing U_t and age maxima over the survivors each round.
  std::vector<storage::BucketIndex> PeekNextBuckets(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached, size_t k) const override;

  /// Bit-identical to the base reference loop (same widening boundaries,
  /// same coverage checks) but prices every candidate exactly once for
  /// the whole call instead of once per PeekNextBuckets(k) retry — the
  /// covering peek runs on every multi-volume pipeline step, where the
  /// from-scratch widening was a measured CPU sink in real-I/O mode.
  std::vector<storage::BucketIndex> PeekNextBucketsCovering(
      const query::WorkloadManager& manager, TimeMs now,
      const CacheProbe& cached,
      const std::function<uint32_t(storage::BucketIndex)>& volume_of,
      const std::vector<size_t>& want_per_volume) const override;

  /// Adjusts alpha at runtime (core::LifeRaft::set_alpha).
  void set_alpha(double alpha) { config_.alpha = alpha; }
  double alpha() const { return config_.alpha; }

 private:
  /// Effective age of a queue under the QoS policy (plain oldest-request
  /// age when QoS is disabled).
  double EffectiveAge(const query::WorkloadQueue& queue,
                      const query::WorkloadManager& manager,
                      TimeMs now) const;

  /// One priced candidate: the per-bucket inputs to the aged-throughput
  /// score. U_t and age depend only on the queues/clock/cache — not on
  /// which earlier predictions were excluded — so a peek prices every
  /// active bucket once and runs its selection rounds over this cache.
  struct Candidate {
    storage::BucketIndex bucket;
    double ut;
    double age;
  };

  /// Prices every active bucket, in active-bucket order.
  std::vector<Candidate> PriceCandidates(const query::WorkloadManager& manager,
                                         TimeMs now,
                                         const CacheProbe& cached) const;

  /// One selection round: the best-scoring candidate with `taken[i]`
  /// false, maxima re-normalized over the survivors (exactly what ranking
  /// from scratch with the taken buckets excluded would compute). Returns
  /// candidates.size() when everything is taken.
  size_t SelectBest(const std::vector<Candidate>& candidates,
                    const std::vector<char>& taken) const;

  const storage::BucketStore* store_;
  storage::DiskModel model_;
  LifeRaftConfig config_;
  /// Optional volume map for per-volume T_b pricing (not owned; null =
  /// price every bucket with model_).
  const storage::StorageTopology* topology_ = nullptr;
};

}  // namespace liferaft::sched

#endif  // LIFERAFT_SCHED_LIFERAFT_SCHEDULER_H_
