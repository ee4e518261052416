#include "storage/topology.h"

#include <algorithm>
#include <cstring>

namespace liferaft::storage {

const char* VolumePlacementName(VolumePlacement placement) {
  switch (placement) {
    case VolumePlacement::kRange:
      return "range";
    case VolumePlacement::kHash:
      return "hash";
  }
  return "?";
}

Status StorageTopologyConfig::Validate() const {
  if (num_volumes == 0) {
    return Status::InvalidArgument("num_volumes must be >= 1");
  }
  if (!volume_disk.empty() && volume_disk.size() != num_volumes) {
    return Status::InvalidArgument(
        "volume_disk must be empty or have num_volumes entries");
  }
  for (const DiskModelParams& p : volume_disk) {
    LIFERAFT_RETURN_IF_ERROR(p.Validate());
  }
  return Status::OK();
}

StorageTopology::StorageTopology(size_t num_buckets,
                                 VolumePlacement placement,
                                 std::vector<DiskModel> models,
                                 bool spill_arm)
    : num_buckets_(num_buckets),
      placement_(placement),
      models_(std::move(models)),
      has_spill_arm_(spill_arm) {
  range_base_ = num_buckets_ / models_.size();
  range_rem_ = num_buckets_ % models_.size();
  const DiskModelParams& first = models_.front().params();
  for (const DiskModel& m : models_) {
    if (std::memcmp(&m.params(), &first, sizeof(DiskModelParams)) != 0) {
      uniform_ = false;
      break;
    }
  }
}

Result<StorageTopology> StorageTopology::Create(
    size_t num_buckets, const StorageTopologyConfig& config,
    const DiskModelParams& default_disk) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("topology needs at least one bucket");
  }
  LIFERAFT_RETURN_IF_ERROR(config.Validate());
  LIFERAFT_RETURN_IF_ERROR(default_disk.Validate());
  // Clamp so every volume owns at least one bucket (an armless volume
  // could never be scheduled and would only distort per-arm telemetry).
  // When per-volume params were given, the clamp must not silently drop
  // any of them.
  const size_t volumes = std::min(config.num_volumes, num_buckets);
  if (!config.volume_disk.empty() && volumes != config.num_volumes) {
    return Status::InvalidArgument(
        "more per-volume disk params than placeable volumes (num_volumes "
        "exceeds bucket count)");
  }
  std::vector<DiskModel> models;
  models.reserve(volumes);
  for (size_t v = 0; v < volumes; ++v) {
    models.emplace_back(config.volume_disk.empty() ? default_disk
                                                   : config.volume_disk[v]);
  }
  return StorageTopology(num_buckets, config.placement, std::move(models),
                         config.spill_arm);
}

VolumeIoStats SumOverArms(const std::vector<VolumeIoStats>& arms) {
  VolumeIoStats total;
  for (const VolumeIoStats& arm : arms) {
    total.foreground_reads += arm.foreground_reads;
    total.foreground_bytes += arm.foreground_bytes;
    total.prefetch_issued += arm.prefetch_issued;
    total.prefetch_claims += arm.prefetch_claims;
    total.busy_ms += arm.busy_ms;
    total.hidden_ms += arm.hidden_ms;
    total.consumed_until_ms =
        std::max(total.consumed_until_ms, arm.consumed_until_ms);
    total.busy_until_ms = std::max(total.busy_until_ms, arm.busy_until_ms);
  }
  return total;
}

}  // namespace liferaft::storage
