#include "sched/metric.h"

#include <algorithm>

#include "storage/topology.h"

namespace liferaft::sched {

double WorkloadThroughput(const storage::DiskModel& model,
                          uint64_t queue_objects, uint64_t bucket_bytes,
                          bool cached) {
  if (queue_objects == 0) return 0.0;
  double w = static_cast<double>(queue_objects);
  double tb = cached ? 0.0 : model.SequentialReadMs(bucket_bytes);
  double tm = model.MatchMs(queue_objects);
  return w / (tb + tm);
}

double WorkloadThroughputOnVolume(const storage::StorageTopology* topology,
                                  const storage::DiskModel& fallback,
                                  storage::BucketIndex bucket,
                                  uint64_t queue_objects,
                                  uint64_t bucket_bytes, bool cached) {
  // The uniform gate keeps uniform topologies on the exact code path the
  // single-model form takes: same model object, same arithmetic, same
  // bits.
  const storage::DiskModel& model =
      (topology != nullptr && !topology->uniform()) ? topology->ModelFor(bucket)
                                                    : fallback;
  return WorkloadThroughput(model, queue_objects, bucket_bytes, cached);
}

double AgedThroughputRaw(double ut, double age_ms, double alpha) {
  return ut * (1.0 - alpha) + age_ms * alpha;
}

double AgedThroughputNormalized(double ut, double ut_max, double age_ms,
                                double age_max, double alpha) {
  double ut_term = ut_max > 0.0 ? ut / ut_max : 0.0;
  double age_term = age_max > 0.0 ? age_ms / age_max : 0.0;
  return ut_term * (1.0 - alpha) + age_term * alpha;
}

Result<double> SelectAlpha(const std::vector<TradeoffPoint>& curve,
                           double tolerance) {
  if (curve.empty()) {
    return Status::InvalidArgument("empty trade-off curve");
  }
  if (tolerance < 0.0 || tolerance > 1.0) {
    return Status::InvalidArgument("tolerance must be in [0, 1]");
  }
  double max_tp = 0.0;
  for (const auto& p : curve) max_tp = std::max(max_tp, p.throughput_qps);
  double floor_tp = (1.0 - tolerance) * max_tp;

  const TradeoffPoint* best = nullptr;
  for (const auto& p : curve) {
    if (p.throughput_qps + 1e-12 < floor_tp) continue;
    if (best == nullptr || p.avg_response_ms < best->avg_response_ms ||
        (p.avg_response_ms == best->avg_response_ms &&
         p.alpha > best->alpha)) {
      best = &p;
    }
  }
  // max_tp point always qualifies, so best is non-null.
  return best->alpha;
}

}  // namespace liferaft::sched
