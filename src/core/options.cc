#include "core/options.h"

namespace liferaft::core {

Status LifeRaftOptions::Validate() const {
  if (objects_per_bucket == 0) {
    return Status::InvalidArgument("objects_per_bucket must be positive");
  }
  if (cache_capacity == 0) {
    return Status::InvalidArgument("cache_capacity must be positive");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  if (hybrid.index_threshold < 0.0) {
    return Status::InvalidArgument("index_threshold must be >= 0");
  }
  if (qos.half_life_parts <= 0.0) {
    return Status::InvalidArgument("qos.half_life_parts must be positive");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (cache_shards == 0) {
    return Status::InvalidArgument("cache_shards must be >= 1");
  }
  LIFERAFT_RETURN_IF_ERROR(PipelineConfig::Validate());
  LIFERAFT_RETURN_IF_ERROR(topology.Validate());
  return disk.Validate();
}

}  // namespace liferaft::core
