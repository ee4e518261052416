#include "sim/run_metrics.h"

#include <cstdio>

#include "util/json.h"

namespace liferaft::sim {

std::string RunMetrics::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-18s  queries=%zu  throughput=%.4f q/s  "
                "avg_resp=%.1f s  cov=%.2f  cache_hit=%.1f%%  reads=%llu",
                scheduler_name.c_str(), queries_completed, throughput_qps,
                avg_response_ms / 1000.0, response_cov,
                cache.HitRate() * 100.0,
                static_cast<unsigned long long>(store.bucket_reads));
  return buf;
}

std::string RunMetricsJson(const RunMetrics& m) {
  util::JsonObject o;
  o.Int("queries_offered", m.queries_offered);
  o.Int("queries_shed", m.queries_shed);
  o.Int("queries_completed", m.queries_completed);
  o.Num("makespan_ms", m.makespan_ms);
  o.Num("offered_qps", m.offered_qps);
  o.Num("sustained_qps", m.sustained_qps);
  o.Num("avg_response_ms", m.avg_response_ms);
  o.Num("p50_response_ms", m.p50_response_ms);
  o.Num("p95_response_ms", m.p95_response_ms);
  o.Num("p99_response_ms", m.p99_response_ms);
  o.Num("response_cov", m.response_cov);
  o.Num("alpha_final", m.alpha_final);
  o.Int("total_matches", m.total_matches);
  o.Int("peak_pending_objects", m.peak_pending_objects);
  o.Int("bucket_reads", m.store.bucket_reads);
  o.Int("bytes_read", m.store.bytes_read);
  o.Int("cache_hits", m.cache.hits);
  o.Int("cache_misses", m.cache.misses);
  o.Num("cache_hit_rate", m.cache.HitRate());
  const storage::VolumeIoStats bets = storage::SumOverArms(m.volumes);
  o.Int("prefetch_issued", bets.prefetch_issued);
  o.Int("prefetch_claims", bets.prefetch_claims);
  o.Num("prefetch_hidden_ms", m.prefetch_hidden_ms);
  o.Int("segments_spilled", m.spill.segments_spilled);
  o.Int("segments_restored", m.spill.segments_restored);
  o.Int("bytes_restored", m.spill.bytes_restored);

  std::string qos = "[";
  for (size_t i = 0; i < m.qos_classes.size(); ++i) {
    const QosClassMetrics& qc = m.qos_classes[i];
    util::JsonObject q;
    q.Str("class", qc.name);
    q.Int("completed", qc.completed);
    q.Int("shed", qc.shed);
    q.Num("mean_response_ms", qc.mean_response_ms);
    q.Num("p50_response_ms", qc.p50_response_ms);
    q.Num("p95_response_ms", qc.p95_response_ms);
    q.Num("p99_response_ms", qc.p99_response_ms);
    if (i > 0) qos += ", ";
    qos += q.Done();
  }
  qos += "]";
  o.Field("qos_classes", qos);

  std::string arms = "[";
  for (size_t v = 0; v < m.volumes.size(); ++v) {
    const storage::VolumeIoStats& arm = m.volumes[v];
    util::JsonObject a;
    a.Int("foreground_reads", arm.foreground_reads);
    a.Int("foreground_bytes", arm.foreground_bytes);
    a.Int("prefetch_issued", arm.prefetch_issued);
    a.Int("prefetch_claims", arm.prefetch_claims);
    a.Num("busy_ms", arm.busy_ms);
    a.Num("hidden_ms", arm.hidden_ms);
    if (v > 0) arms += ", ";
    arms += a.Done();
  }
  arms += "]";
  o.Field("arms", arms);

  // Appended only in real-I/O mode: every golden/digest comparison runs
  // modeled, so the modeled serialization must not change shape.
  if (m.real_io_enabled) {
    std::string vols = "[";
    for (size_t v = 0; v < m.real_io.size(); ++v) {
      const storage::AsyncVolumeStats& s = m.real_io[v];
      util::JsonObject r;
      r.Int("reads", s.reads);
      r.Int("bytes", s.bytes);
      r.Int("failures", s.failures);
      r.Int("checksum_failures", s.checksum_failures);
      r.Int("max_queue_depth", s.max_queue_depth);
      r.Num("total_latency_ms", s.total_latency_ms);
      r.Num("p50_latency_ms", s.p50_latency_ms);
      r.Num("p99_latency_ms", s.p99_latency_ms);
      if (v > 0) vols += ", ";
      vols += r.Done();
    }
    vols += "]";
    o.Field("real_io", vols);
  }
  return o.Done();
}

}  // namespace liferaft::sim
