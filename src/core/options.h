// Top-level configuration of a LifeRaft instance, aggregating every layer's
// knobs with paper defaults.

#ifndef LIFERAFT_CORE_OPTIONS_H_
#define LIFERAFT_CORE_OPTIONS_H_

#include <cstddef>

#include "exec/batch_pipeline.h"
#include "join/hybrid.h"
#include "sched/metric.h"
#include "sched/qos.h"
#include "storage/disk_model.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::core {

/// Options for LifeRaft::Create. Defaults follow the paper's experimental
/// configuration (scaled: see DESIGN.md §5). The prefetch knobs
/// (enable_prefetch, prefetch_depth, adaptive_prefetch,
/// max_prefetch_depth) are inherited from exec::PipelineConfig: enable them
/// consistently across compared runs, since prefetched buckets count as
/// resident for phi and so change the schedule.
struct LifeRaftOptions : exec::PipelineConfig {
  /// Equal-count partitioning target (paper: 10,000 objects = 40 MB).
  size_t objects_per_bucket = 1000;
  /// Bucket cache capacity in buckets (paper: 20).
  size_t cache_capacity = 20;
  /// Lock/LRU shards of the bucket cache (clamped to [1, cache_capacity]);
  /// 1 reproduces the unsharded cache exactly.
  size_t cache_shards = 1;
  /// Age bias alpha in [0, 1]: 0 = greedy most-contentious-first,
  /// 1 = arrival order.
  double alpha = 0.25;
  /// U_a blending mode (see sched/metric.h).
  sched::MetricNormalization normalization =
      sched::MetricNormalization::kNormalized;
  /// Hybrid join configuration (index threshold ~3%).
  join::HybridConfig hybrid;
  /// Disk cost model (defaults calibrated to T_b = 1.2 s, T_m = 0.13 ms).
  /// With a multi-volume topology this is the default every volume
  /// inherits unless topology.volume_disk overrides it per volume.
  storage::DiskModelParams disk;
  /// Multi-volume storage topology: how buckets are spread over
  /// independent disk arms (num_volumes, range/hash placement, optional
  /// per-volume disk params). The default single volume reproduces the
  /// pre-topology system byte for byte; more volumes let the prefetch
  /// pipeline overlap fetches across arms on the virtual clock.
  storage::StorageTopologyConfig topology;
  /// Optional QoS age depreciation (paper §6 future work).
  sched::QosConfig qos;
  /// Build the B+tree spatial index (required for the hybrid indexed path).
  bool build_index = true;
  /// Worker threads for a batch's join work. 1 = serial. Parallel mode
  /// produces results identical to serial mode (see join::JoinEvaluator);
  /// scheduling and the virtual clock stay deterministic.
  size_t num_threads = 1;

  Status Validate() const;
};

}  // namespace liferaft::core

#endif  // LIFERAFT_CORE_OPTIONS_H_
