#include "core/options.h"

namespace liferaft::core {

Status LifeRaftOptions::Validate() const {
  if (objects_per_bucket == 0) {
    return Status::InvalidArgument("objects_per_bucket must be positive");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  if (qos.half_life_parts <= 0.0) {
    return Status::InvalidArgument("qos.half_life_parts must be positive");
  }
  return StackConfig::Validate();
}

}  // namespace liferaft::core
