// Top-level configuration of a LifeRaft instance, aggregating every layer's
// knobs with paper defaults.

#ifndef LIFERAFT_CORE_OPTIONS_H_
#define LIFERAFT_CORE_OPTIONS_H_

#include <cstddef>

#include "exec/stack.h"
#include "sched/metric.h"
#include "sched/qos.h"
#include "util/status.h"

namespace liferaft::core {

/// Options for LifeRaft::Create. Defaults follow the paper's experimental
/// configuration (scaled: see DESIGN.md §5). The execution-stack knobs —
/// cache, hybrid join, disk model, topology, and the prefetch knobs — are
/// inherited from exec::StackConfig, which sim::EngineConfig shares.
/// Enable prefetching consistently across compared runs, since prefetched
/// buckets count as resident for phi and so change the schedule.
struct LifeRaftOptions : exec::StackConfig {
  /// Equal-count partitioning target (paper: 10,000 objects = 40 MB).
  size_t objects_per_bucket = 1000;
  /// Age bias alpha in [0, 1]: 0 = greedy most-contentious-first,
  /// 1 = arrival order.
  double alpha = 0.25;
  /// U_a blending mode (see sched/metric.h).
  sched::MetricNormalization normalization =
      sched::MetricNormalization::kNormalized;
  /// Optional QoS age depreciation (paper §6 future work).
  sched::QosConfig qos;
  /// Build the B+tree spatial index (required for the hybrid indexed path).
  bool build_index = true;

  Status Validate() const;
};

}  // namespace liferaft::core

#endif  // LIFERAFT_CORE_OPTIONS_H_
