// Multi-volume storage topology: the archive's buckets spread across N
// independent volumes, each modeling its own disk arm. The paper's SDSS
// deployment serves buckets off many spindles; everything above this layer
// (cache, pipeline, schedulers, engines) was built against a single global
// disk arm, which this map generalizes away:
//
//   * placement — a pluggable bucket -> volume map. kRange keeps
//     HTM-curve-adjacent buckets on the same volume (bucket indices are
//     curve order, so a contiguous index range is a contiguous sky region
//     — sequential drains stay sequential per arm); kHash stripes buckets
//     round-robin for maximum read parallelism on curve-local workloads.
//   * per-volume disk models — every volume owns a DiskModel (uniform by
//     default, optionally heterogeneous per volume), so T_b is a property
//     of where a bucket lives, not of the archive.
//
// The topology itself is an immutable map plus cost models: safe to read
// from any thread, owning no clocks or queues. Per-arm virtual clocks and
// in-flight fetch queues live with the accounting owner
// (exec::BatchPipeline keeps one prefetch queue per arm; VolumeIoStats
// below is the telemetry row it fills per volume). The bucket cache reads
// the per-volume disk models once, to price evictions by the arm that
// would re-read.
// A single-volume topology (num_volumes == 1) is the exact pre-topology
// system: every bucket maps to volume 0 under either placement and every
// layer's accounting reduces to the single-arm model byte for byte.

#ifndef LIFERAFT_STORAGE_TOPOLOGY_H_
#define LIFERAFT_STORAGE_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/bucket.h"
#include "storage/disk_model.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::storage {

/// Index of a volume (disk arm) within a topology.
using VolumeIndex = uint32_t;

/// How buckets are placed onto volumes.
enum class VolumePlacement {
  /// Contiguous bucket-index ranges (= HTM-curve ranges) per volume, split
  /// as evenly as possible with the remainder on the low volumes.
  kRange,
  /// bucket % num_volumes striping.
  kHash,
};

const char* VolumePlacementName(VolumePlacement placement);

/// Topology construction knobs (engine/facade options embed this).
struct StorageTopologyConfig {
  /// Independent volumes (disk arms). 1 reproduces the single-arm system
  /// exactly.
  size_t num_volumes = 1;
  VolumePlacement placement = VolumePlacement::kRange;
  /// Per-volume disk parameters; empty = every volume uses the default
  /// model, otherwise must have exactly num_volumes entries.
  std::vector<DiskModelParams> volume_disk;
  /// Dedicate an extra disk arm to the workload spill file. Spill
  /// restores are then charged to that arm instead of the batch bucket's
  /// arm, so prefetches on the bucket arm no longer queue behind (or slip
  /// by) restore I/O — the deployment analogue of putting scratch on its
  /// own spindle. The restore still serializes in the batch's foreground
  /// phase (the join needs the restored objects), so the completion clock
  /// is charged identically; only the per-arm busy accounting moves.
  /// Off (the default), or with spill disabled, nothing changes byte for
  /// byte. The spill arm owns no buckets: placement and per-volume T_b
  /// pricing are unaffected.
  bool spill_arm = false;

  Status Validate() const;
};

/// Per-volume I/O telemetry of one run, filled by the accounting owner
/// (exec::BatchPipeline) and reported through sim::RunMetrics.
struct VolumeIoStats {
  /// Foreground bucket reads charged to this arm (scan misses).
  uint64_t foreground_reads = 0;
  /// Modeled bytes of those foreground reads.
  uint64_t foreground_bytes = 0;
  /// The arm's bet ledger: prefetch fetches issued on this arm, and those
  /// later claimed by a batch. A bet's bucket keeps pending work until it
  /// is picked, so after a completed drain issued == claims.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_claims = 0;
  /// Modeled disk-busy time of this arm: foreground I/O (incl. spill
  /// restores) plus issued prefetch fetches.
  TimeMs busy_ms = 0.0;
  /// Fetch latency this arm's claimed prefetches hid behind compute.
  TimeMs hidden_ms = 0.0;
  /// This arm's virtual clock at end of run counting only consumed work
  /// (foreground phases and claimed fetches); the run's makespan is the
  /// max of these and the completion clock.
  TimeMs consumed_until_ms = 0.0;
  /// Busy-until including speculative bets that were later dropped — how
  /// far ahead of consumption the arm was driven.
  TimeMs busy_until_ms = 0.0;
};

/// One run-wide ledger from per-arm telemetry: counts, bytes, and busy and
/// hidden time are summed; the two clocks take the max over arms.
VolumeIoStats SumOverArms(const std::vector<VolumeIoStats>& arms);

/// Immutable bucket -> volume map with per-volume disk models.
class StorageTopology {
 public:
  /// Builds the map for `num_buckets` buckets. `default_disk` is used for
  /// every volume config.volume_disk leaves unspecified. num_volumes is
  /// clamped to [1, num_buckets] so every volume owns at least one bucket.
  static Result<StorageTopology> Create(size_t num_buckets,
                                        const StorageTopologyConfig& config,
                                        const DiskModelParams& default_disk);

  size_t num_volumes() const { return models_.size(); }
  size_t num_buckets() const { return num_buckets_; }

  /// The volume owning bucket `b`.
  VolumeIndex VolumeOf(BucketIndex b) const {
    if (placement_ == VolumePlacement::kHash) {
      return static_cast<VolumeIndex>(b % models_.size());
    }
    // Range placement: buckets_per_volume_ splits with the remainder on
    // the low volumes, mirroring the cache's capacity split.
    const size_t idx = static_cast<size_t>(b);
    const size_t wide = range_rem_ * (range_base_ + 1);
    if (idx < wide) {
      return static_cast<VolumeIndex>(idx / (range_base_ + 1));
    }
    return static_cast<VolumeIndex>(range_rem_ +
                                    (idx - wide) / range_base_);
  }

  /// The disk model of volume `v` / of the volume owning bucket `b`.
  const DiskModel& model(VolumeIndex v) const { return models_[v]; }
  const DiskModel& ModelFor(BucketIndex b) const {
    return models_[VolumeOf(b)];
  }

  /// True if every volume shares identical disk parameters (the uniform
  /// default; heterogeneous topologies make T_b placement-dependent).
  bool uniform() const { return uniform_; }

  /// Whether a dedicated spill arm was configured (see
  /// StorageTopologyConfig::spill_arm). The spill arm is NOT a bucket
  /// volume: num_volumes() excludes it and VolumeOf never returns it.
  bool has_spill_arm() const { return has_spill_arm_; }

 private:
  StorageTopology(size_t num_buckets, VolumePlacement placement,
                  std::vector<DiskModel> models, bool spill_arm);

  size_t num_buckets_;
  VolumePlacement placement_;
  std::vector<DiskModel> models_;
  // Range-placement split: base buckets per volume, first range_rem_
  // volumes own one more.
  size_t range_base_ = 0;
  size_t range_rem_ = 0;
  bool uniform_ = true;
  bool has_spill_arm_ = false;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_TOPOLOGY_H_
