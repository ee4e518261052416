// Per-run results of a simulation: the quantities the paper's figures
// report (query throughput, average response time and its coefficient of
// variance) plus the underlying I/O and cache counters.

#ifndef LIFERAFT_SIM_RUN_METRICS_H_
#define LIFERAFT_SIM_RUN_METRICS_H_

#include <string>
#include <vector>

#include "join/evaluator.h"
#include "query/workload.h"
#include "storage/async_io.h"
#include "storage/bucket_cache.h"
#include "storage/bucket_store.h"
#include "storage/topology.h"
#include "util/clock.h"
#include "util/stats.h"

namespace liferaft::sim {

/// Per-QoS-class serving telemetry (SimEngine::Run and Serve alike; a
/// closed drain sheds nothing). Latencies are admission-to-completion on
/// the engine clock.
struct QosClassMetrics {
  std::string name;
  size_t completed = 0;
  /// Arrivals of this class rejected by the admission controller.
  size_t shed = 0;
  double mean_response_ms = 0.0;
  double p50_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;
};

/// Everything measured over one simulated run.
struct RunMetrics {
  std::string scheduler_name;
  size_t queries_completed = 0;

  /// Virtual time from t=0 to the last completion, accounted as the max
  /// over the completion clock and every disk arm's consumed-work clock.
  /// Every batch completion waits out its own arm's residual before its
  /// CPU phase, so the completion clock already dominates the arms and
  /// the max is exact — single-volume runs report the identical value the
  /// pre-topology engine did, and multi-volume runs shrink it by exactly
  /// the fetch time the extra arms overlap.
  TimeMs makespan_ms = 0.0;
  /// queries_completed / makespan (the paper's throughput axis).
  double throughput_qps = 0.0;

  /// Response time (completion - arrival) statistics in milliseconds.
  StreamingStats response_stats;
  double avg_response_ms = 0.0;
  double p50_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;
  /// Coefficient of variance of response time (Fig 7b's second series).
  double response_cov = 0.0;

  storage::CacheStats cache;
  storage::StoreStats store;
  join::EvaluatorStats evaluator;
  uint64_t total_matches = 0;
  /// Peak buffered workload objects across the run — the memory-pressure
  /// argument of §6 (most-contentious-first keeps this low; deferring hot
  /// buckets inflates it).
  uint64_t peak_pending_objects = 0;
  /// Workload-overflow activity (zero unless spilling was enabled).
  query::SpillStats spill;
  /// Virtual fetch time hidden behind compute by the cross-batch prefetch
  /// pipeline (zero unless EngineConfig::enable_prefetch). The bet ledger
  /// — issue and claim counts — is kept per arm in `volumes`
  /// (storage::SumOverArms totals it).
  TimeMs prefetch_hidden_ms = 0.0;
  /// Per-volume I/O telemetry (index = volume; one entry per disk arm,
  /// exactly one for single-volume runs; empty in per-query modes, which
  /// bypass the pipeline): foreground reads/bytes, prefetch issue/claim
  /// counts, modeled busy and hidden time, and each arm's consumed-work
  /// and speculative busy-until clocks.
  std::vector<storage::VolumeIoStats> volumes;

  /// Real-I/O mode (EngineConfig::io_mode == kReal): measured wall-clock
  /// telemetry from the per-volume submission queues — read/byte counts,
  /// peak queue depth, p50/p99 completion latency, and checksum failures
  /// per volume. In real mode makespan_ms is MEASURED wall time, not
  /// DiskModel arithmetic, so these numbers vary run to run and are never
  /// part of a determinism digest. real_io_enabled gates serialization:
  /// modeled-mode JSON is byte-identical to pre-real-I/O builds.
  bool real_io_enabled = false;
  std::vector<storage::AsyncVolumeStats> real_io;

  // ------------------------------------------------------- serving mode --
  // Filled by SimEngine::Run and Serve alike; a closed-workload Run
  // offers every query and sheds none.

  /// Arrivals offered to the admission controller (admitted + shed).
  uint64_t queries_offered = 0;
  /// Arrivals rejected by load shedding.
  uint64_t queries_shed = 0;
  /// Offered load: queries_offered / makespan.
  double offered_qps = 0.0;
  /// Completed work rate actually sustained: queries_completed / makespan.
  /// Equals throughput_qps when nothing is shed.
  double sustained_qps = 0.0;
  /// LifeRaft alpha at end of run: the configured alpha, unless the
  /// caller moved it (core::LifeRaft::set_alpha).
  double alpha_final = 0.0;
  /// Per-class latency/shed breakdown, indexed by sim::QosClass.
  std::vector<QosClassMetrics> qos_classes;

  /// One-line human-readable summary.
  std::string Summary() const;
};

/// Deterministic JSON serialization of a run: explicit key order, every
/// double printed %.17g (bit-exact round trip), no timestamps. Two runs
/// produce the same string iff their metrics agree bit for bit, so this
/// is both the report format and the determinism/store-identity digest
/// (the memory-vs-file identity tests compare these strings directly).
std::string RunMetricsJson(const RunMetrics& m);

}  // namespace liferaft::sim

#endif  // LIFERAFT_SIM_RUN_METRICS_H_
