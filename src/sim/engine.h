// The discrete-event simulation engine: replays a query trace against one
// archive under a chosen execution mode, advancing a virtual clock by the
// disk model's costs. Joins execute for real (matches are exact); only I/O
// latency is modeled — see DESIGN.md §2.
//
// Execution modes (paper §5):
//  * kShared    — batch processing through the Workload Manager / LifeRaft
//                 architecture: a Scheduler picks a bucket, its whole
//                 workload queue is served in one pass through the shared
//                 bucket cache (hybrid join applies).
//  * kNoShare   — each query is evaluated independently and in arrival
//                 order: scan-based, but no I/O sharing and no shared
//                 cache.
//  * kIndexOnly — SkyQuery's legacy execution: every query evaluated
//                 exclusively through spatial-index probes, in arrival
//                 order.

#ifndef LIFERAFT_SIM_ENGINE_H_
#define LIFERAFT_SIM_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/stack.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace liferaft::sim {

/// How queries are executed (see file comment).
enum class ExecutionMode { kShared, kNoShare, kIndexOnly };

const char* ExecutionModeName(ExecutionMode mode);

/// How I/O time is charged.
///  * kModeled — the virtual-clock oracle: every fetch costs DiskModel
///    arithmetic, runs are deterministic and bit-reproducible. The
///    default, and the only mode the golden/digest tests ever see.
///  * kReal — measured execution: prefetch bets and foreground misses are
///    dispatched to the store's per-volume submission queues
///    (storage::AsyncReader) and the engine clock tracks ELAPSED WALL
///    TIME, so multi-volume overlap is measured, not modeled. Requires
///    kShared execution with a store that supports concurrent reads
///    (FileStore, MemStore); Run only — Serve's admission control is
///    defined on the virtual clock.
enum class IoMode { kModeled, kReal };

/// Engine configuration. The execution-stack knobs (cache, hybrid join,
/// disk model, topology, and the prefetch knobs, which apply in shared
/// mode) are inherited from exec::StackConfig, which
/// core::LifeRaftOptions shares; the fields below are the engine's own.
struct EngineConfig : exec::StackConfig {
  ExecutionMode mode = ExecutionMode::kShared;
  /// Virtual-clock oracle vs measured wall-clock execution (see IoMode).
  /// kModeled leaves every code path and result bit-identical to builds
  /// that predate real I/O.
  IoMode io_mode = IoMode::kModeled;
  /// Keep match tuples (disable for scheduling-scale experiments).
  bool collect_matches = false;
  /// Workload overflow (shared mode): when non-empty, workload queues
  /// exceeding `workload_memory_budget` resident objects spill to this
  /// scratch file; restores charge disk time through the cost model.
  std::string spill_path;
  uint64_t workload_memory_budget = 0;
};

/// Per-query outcome of a run.
struct QueryOutcome {
  query::QueryId id = 0;
  TimeMs arrival_ms = 0.0;
  TimeMs completion_ms = 0.0;
  size_t parts = 0;
  uint64_t matches = 0;
  /// QoS class assigned at admission from the query's fan-out (Run uses
  /// ServeConfig's default interactive_max_parts).
  QosClass qos = QosClass::kBatch;

  TimeMs ResponseMs() const { return completion_ms - arrival_ms; }
};

/// Single-archive simulation engine.
class SimEngine {
 public:
  /// @param catalog   the archive (not owned; must outlive the engine)
  /// @param scheduler bucket scheduler; required for kShared, ignored
  ///                  otherwise
  SimEngine(storage::Catalog* catalog,
            std::unique_ptr<sched::Scheduler> scheduler, EngineConfig config);

  /// Replays `queries[i]` arriving at `arrivals_ms[i]` (parallel arrays;
  /// arrivals must be ascending) until every query completes: Serve with
  /// unbounded admission over these arrival times, in any execution and
  /// I/O mode. Returns the run's metrics, serving fields included (nothing
  /// is shed); per-query outcomes are available via outcomes().
  Result<RunMetrics> Run(const std::vector<query::CrossMatchQuery>& queries,
                         const std::vector<TimeMs>& arrivals_ms);

  /// Continuous serving (shared mode, modeled I/O): queries arrive
  /// open-loop per `serve.arrivals`, are QoS-classified by fan-out, and
  /// pass the admission controller before entering the workload manager —
  /// arrivals it sheds never execute and are reported per class in
  /// RunMetrics::qos_classes. The scheduler keeps the alpha it was built
  /// with. Run and Serve share one loop, so a kTrace spec in an otherwise
  /// default ServeConfig reproduces Run(queries, trace) exactly, whole
  /// report included.
  Result<RunMetrics> Serve(const std::vector<query::CrossMatchQuery>& queries,
                           const ServeConfig& serve);

  /// Outcomes of the last Run, in completion order.
  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }

 private:
  struct AdmittedQuery {
    const query::CrossMatchQuery* query;
    std::vector<query::BucketWorkload> workloads;
    TimeMs arrival_ms;
  };

  // Validates the config and the mode's preconditions, resets all run
  // state, and rebuilds the execution stack (plus the spill file, in
  // shared mode).
  Status PrepareRun(size_t expected_queries);
  // The loop Run and Serve share: admits each arrival through `serve`'s
  // admission controller once the clock reaches it, steps the execution
  // mode, and idles the clock to the next arrival when no work is
  // pending.
  Result<RunMetrics> ServeLoop(
      const std::vector<query::CrossMatchQuery>& queries,
      const std::vector<TimeMs>& arrivals_ms, const ServeConfig& serve);
  // Collects RunMetrics from the engine's post-loop state and the
  // admission controller that saw every arrival; `shed_by_class` splits
  // its sheds by QoS class.
  RunMetrics AssembleMetrics(const AdmissionController& admission,
                             const size_t (&shed_by_class)[kNumQosClasses]);

  // One scheduling step in shared mode (delegates to the unified
  // exec::BatchPipeline); advances the clock. Returns false if there was
  // no pending work.
  Result<bool> SharedStep();
  // Serves the FIFO-front query in a per-query mode; advances the clock.
  // Returns false if no admitted query is waiting.
  Result<bool> PerQueryStep();

  void RecordCompletion(query::QueryId id, TimeMs completion);

  storage::Catalog* catalog_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  EngineConfig config_;

  // Run state.
  /// Topology, cache, evaluator, manager, reader, and (shared mode) the
  /// pipeline, rebuilt by every PrepareRun.
  std::unique_ptr<exec::ExecutionStack> stack_;
  std::vector<AdmittedQuery> fifo_;  // per-query modes; front = next
  size_t fifo_head_ = 0;
  TimeMs clock_ = 0.0;
  /// Real mode: the wall time PrepareRun finished at; the engine clock is
  /// max(clock_, wall now - this) after every step.
  WallClock wall_;
  TimeMs wall_base_ms_ = 0.0;

  std::unordered_map<query::QueryId, QueryOutcome> pending_outcomes_;
  std::vector<QueryOutcome> outcomes_;
  uint64_t total_matches_ = 0;
  uint64_t fifo_pending_objects_ = 0;
  uint64_t peak_pending_objects_ = 0;
};

}  // namespace liferaft::sim

#endif  // LIFERAFT_SIM_ENGINE_H_
