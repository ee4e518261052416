// Hybrid join strategy (paper §3.4): per bucket batch, choose an indexed
// join when the workload queue is small relative to the bucket (random I/O
// beats a full scan) and a non-indexed sequential scan otherwise. The paper
// measures the break-even at roughly 3% of the bucket size for 40 MB
// buckets.

#ifndef LIFERAFT_JOIN_HYBRID_H_
#define LIFERAFT_JOIN_HYBRID_H_

#include <cstdint>

#include "storage/disk_model.h"

namespace liferaft::join {

/// The two executable plans for one bucket batch.
enum class JoinStrategy {
  kScan,     ///< read (or reuse cached) bucket, sequential merge
  kIndexed,  ///< one index probe per workload object
};

/// Hybrid-strategy configuration.
struct HybridConfig {
  /// Use the indexed join when queue_size / bucket_size is strictly below
  /// this (paper: ~0.03). Set to 0 to always scan, to >1 to always probe.
  double index_threshold = 0.03;
};

/// Picks the plan for a batch of `queue_objects` workload objects against a
/// bucket of `bucket_objects` objects. A cached bucket costs no T_b, so a
/// resident bucket is always scanned (the paper's cache-aware scheduling);
/// otherwise the threshold decides.
JoinStrategy ChooseStrategy(const HybridConfig& config, uint64_t queue_objects,
                            uint64_t bucket_objects, bool bucket_cached);

/// The break-even queue/bucket ratio implied by a disk model: the ratio at
/// which an uncached scan and an indexed join cost the same. Used by the
/// Fig 2 reproduction and as a principled default threshold.
double BreakEvenRatio(const storage::DiskModel& model,
                      uint64_t bucket_objects);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_HYBRID_H_
