#include "join/hybrid.h"

#include "storage/bucket.h"

namespace liferaft::join {

JoinStrategy ChooseStrategy(const HybridConfig& config, uint64_t queue_objects,
                            uint64_t bucket_objects, bool bucket_cached) {
  if (bucket_cached) return JoinStrategy::kScan;
  if (bucket_objects == 0) return JoinStrategy::kIndexed;
  double ratio =
      static_cast<double>(queue_objects) / static_cast<double>(bucket_objects);
  return ratio < config.index_threshold ? JoinStrategy::kIndexed
                                        : JoinStrategy::kScan;
}

double BreakEvenRatio(const storage::DiskModel& model,
                      uint64_t bucket_objects) {
  if (bucket_objects == 0) return 0.0;
  // Solve T_b + |W| T_m = |W| (probe + T_m)  =>  |W| = T_b / probe.
  double tb = model.SequentialReadMs(bucket_objects *
                                     storage::Bucket::kBytesPerObject);
  double w = tb / model.params().index_probe_ms;
  return w / static_cast<double>(bucket_objects);
}

}  // namespace liferaft::join
