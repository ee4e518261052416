// The workload throughput metric U_t (paper Eq. 1) and the aged workload
// throughput metric U_a (Eq. 2).
//
//   U_t(i) = |W_i| / (T_b * phi(i) + T_m * |W_i|)
//   U_a(i) = U_t(i) * (1 - alpha) + A(i) * alpha
//
// U_t is the rate (objects per ms) at which bucket i's queue would be
// consumed if scheduled now; phi(i) = 0 when the bucket is cached, making
// resident contentious buckets maximally attractive. A(i) is the age of the
// oldest request in the queue.
//
// Unit caveat (see DESIGN.md §5): taken literally, Eq. 2 adds objects/ms
// (magnitude << 10) to milliseconds (magnitude >> 10^4), so any alpha > 0 is
// immediately age-dominated and all intermediate alpha settings collapse
// onto alpha = 1. To reproduce the paper's graded alpha behaviour we default
// to a normalized blend over the currently active buckets:
//
//   U_a(i) = (1 - alpha) * U_t(i)/max_j U_t(j) + alpha * A(i)/max_j A(j)
//
// The literal formula is retained as kRawPaper and contrasted in
// bench_ablation_metric.
//
// Paper §4 tunes alpha offline: trade-off curves of throughput against
// mean response are measured at several alphas, and SelectAlpha picks the
// alpha with the lowest mean response within a throughput tolerance
// (Fig. 4, reproduced by bench_fig4_tradeoff).

#ifndef LIFERAFT_SCHED_METRIC_H_
#define LIFERAFT_SCHED_METRIC_H_

#include <cstdint>
#include <vector>

#include "storage/bucket.h"
#include "storage/disk_model.h"
#include "util/status.h"

namespace liferaft::storage {
class StorageTopology;
}  // namespace liferaft::storage

namespace liferaft::sched {

/// How U_t and A are combined into U_a.
enum class MetricNormalization {
  kRawPaper,    ///< literal Eq. 2
  kNormalized,  ///< both terms scaled to [0,1] over active buckets (default)
};

/// Computes U_t (objects consumed per millisecond) for one bucket.
///
/// @param model         disk cost model supplying T_b and T_m
/// @param queue_objects |W_i|, pending workload objects for the bucket
/// @param bucket_bytes  bucket size on disk (determines T_b)
/// @param cached        phi(i) == 0
double WorkloadThroughput(const storage::DiskModel& model,
                          uint64_t queue_objects, uint64_t bucket_bytes,
                          bool cached);

/// Volume-aware U_t: prices T_b with the disk model of the volume that
/// actually owns `bucket`. With heterogeneous per-volume disks
/// (StorageTopologyConfig::volume_disk) the global-model form over-ranks
/// buckets on slow arms — the evaluator charges the volume model's T_b,
/// so the scheduler must rank with the same one. A null or uniform
/// topology falls back to `fallback` exactly (bit-identical to the
/// single-model form, preserving every uniform-topology schedule).
double WorkloadThroughputOnVolume(const storage::StorageTopology* topology,
                                  const storage::DiskModel& fallback,
                                  storage::BucketIndex bucket,
                                  uint64_t queue_objects,
                                  uint64_t bucket_bytes, bool cached);

/// Combines U_t and age into U_a per Eq. 2 (raw form).
double AgedThroughputRaw(double ut, double age_ms, double alpha);

/// Normalized form: ut_max/age_max are maxima over the active buckets; zero
/// maxima degrade gracefully (that term contributes 0 for every bucket).
double AgedThroughputNormalized(double ut, double ut_max, double age_ms,
                                double age_max, double alpha);

/// One measured operating point of a trade-off curve.
struct TradeoffPoint {
  double alpha = 0.0;
  double throughput_qps = 0.0;
  double avg_response_ms = 0.0;
};

/// Picks the alpha whose response time is lowest among points with
/// throughput >= (1 - tolerance) * max throughput on the curve (paper Fig 4:
/// tolerance 0.2 selects alpha 1.0 at low saturation, 0.25 at high).
/// Returns InvalidArgument for an empty curve or tolerance outside [0, 1].
Result<double> SelectAlpha(const std::vector<TradeoffPoint>& curve,
                           double tolerance);

}  // namespace liferaft::sched

#endif  // LIFERAFT_SCHED_METRIC_H_
