// Scenario-matrix harness: the CI-checkable claim that the serving stack
// "handles many scenarios". A scenario grid is a declarative set of cells
// — arrival shape (steady Poisson, bursty, diurnal, flash crowd) ×
// catalog skew × QoS mix × cache size × volume count (uniform and
// heterogeneous) — and every cell runs the SAME execution stack
// (SimEngine::Serve over the shared exec::BatchPipeline) against a shared
// catalog, producing a per-cell report plus machine-checkable invariants:
//
//   * determinism — every cell runs twice; the second run must reproduce
//     the first bit for bit (makespan, matches, reads, shed counts);
//   * monotonicity — cells sharing a `monotonic_group` tag are a
//     volume-count sweep of one workload: more arms must never worsen the
//     makespan;
//   * QoS ordering — cells flagged `check_qos` assert interactive p99 <=
//     batch p99 under mixed load;
//   * no-shed bound — cells flagged `expect_no_shed` assert the admission
//     controller shed nothing (offered load below the admission bound);
//   * pairwise bound — a cell naming a reference via `strictly_beats`
//     asserts its makespan is strictly below the reference's (used to pin
//     hetero-with-one-fast-arm < its all-slow uniform twin).
//
// Cells come from a built-in grid ("smoke" — the per-PR CI subset — or
// "full", the nightly sweep) or from a line-based spec file (see
// ParseScenarioSpec and docs/SCENARIOS.md for the schema). Reports are
// deterministic JSON: the same grid and seeds produce byte-identical
// output, which is what the CI job diffs.

#ifndef LIFERAFT_SIM_SCENARIO_MATRIX_H_
#define LIFERAFT_SIM_SCENARIO_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/topology.h"
#include "util/status.h"
#include "workload/trace_gen.h"

namespace liferaft::sim {

/// One cell of the scenario grid. Every field maps to a spec-file key
/// (the SCENARIO_KEY markers in scenario_matrix.cc); defaults reproduce a
/// steady single-volume serving baseline.
struct ScenarioCell {
  /// Unique cell label (report key).
  std::string name;

  // ------------------------------------------------------ workload axes --
  /// Queries generated for this cell's trace.
  size_t queries = 48;
  /// Trace generator seed (same seed + same axes = same trace).
  uint64_t trace_seed = 23;
  /// Catalog-skew level (workload::SkewedTracePreset).
  workload::SkewLevel skew = workload::SkewLevel::kDefault;
  /// Bimodal QoS mix: probability a query is drawn small/interactive
  /// (workload::TraceConfig::p_small).
  double p_small = 0.0;

  // ------------------------------------------------------- arrival axis --
  /// Arrival process (kind, rates, seed; kTrace is not a grid axis).
  ArrivalSpec arrivals;

  // ------------------------------------------------------ topology axes --
  /// Disk arms.
  size_t volumes = 1;
  storage::VolumePlacement placement = storage::VolumePlacement::kRange;
  /// Heterogeneous volumes: volume 0 runs at half transfer rate.
  bool hetero = false;
  /// Uniform transfer-rate multiplier applied to every volume (after the
  /// hetero halving). 0.5 on a non-hetero cell builds the all-slow
  /// uniform twin of a hetero cell, the reference for `strictly_beats`.
  double transfer_scale = 1.0;
  /// Dedicated spill arm (StorageTopologyConfig::spill_arm).
  bool spill_arm = false;
  /// Workload spill budget in objects; 0 = spilling off.
  uint64_t spill_budget = 0;

  // -------------------------------------------------------- engine axes --
  /// Bucket-cache capacity (buckets).
  size_t cache = 20;
  /// Prefetch depth per arm; 0 disables prefetching.
  size_t prefetch_depth = 0;
  /// LifeRaft alpha, fixed for the whole run.
  double alpha = 0.25;

  // ------------------------------------------------------ QoS/admission --
  /// Fan-out bound for the interactive class.
  size_t interactive_max_parts = 8;
  /// Scheduler-level QoS: depreciate long queries' age so small
  /// (interactive) work schedules sooner (sched::QosConfig).
  bool qos_sched = false;
  /// Admission bounds (0 = unbounded).
  size_t max_pending_queries = 0;
  uint64_t max_pending_objects = 0;

  // --------------------------------------------------------- invariants --
  /// Assert the admission controller shed nothing.
  bool expect_no_shed = false;
  /// Assert interactive p99 <= batch p99 (needs completions in both
  /// classes).
  bool check_qos = false;
  /// Cells sharing a tag form a volume sweep: sorted by `volumes`, the
  /// makespan must be non-increasing.
  std::string monotonic_group;
  /// Names another cell this one's makespan must be STRICTLY below
  /// (parity is a failure), e.g. hetero hardware with one upgraded arm vs
  /// its all-slow uniform twin: the upgraded arm must yield a measurable
  /// win (per-volume T_b pricing steering work off the slow arm), not just
  /// do no harm. Empty = no claim; naming a cell absent from the matrix
  /// is a failure.
  std::string strictly_beats;

  Status Validate() const;
};

/// Per-cell outcome: the serving metrics plus any invariant violations
/// (empty `failures` = the cell passed).
struct ScenarioResult {
  ScenarioCell cell;
  RunMetrics metrics;
  std::vector<std::string> failures;
};

/// Matrix-level options: the shared catalog every cell runs against, and
/// whether each cell is re-run to check determinism.
struct ScenarioMatrixOptions {
  size_t catalog_objects = 50'000;
  uint64_t catalog_seed = 21;
  size_t objects_per_bucket = 1000;
  /// Scratch directory for cells with a spill budget; running such a cell
  /// with this empty is an error.
  std::string spill_dir;
  /// Run every cell twice and fail it on any bit-level divergence.
  bool verify_determinism = true;
};

/// A built-in grid by name: "smoke" (the per-PR CI subset, >= 6 cells,
/// seconds to run) or "full" (the nightly sweep over the whole cross
/// product). InvalidArgument for unknown names.
Result<std::vector<ScenarioCell>> BuiltinScenarioGrid(
    const std::string& name);

/// Parses a line-based spec: `[cell]` opens a cell, `key = value` sets an
/// axis (see docs/SCENARIOS.md for every key), `#` starts a comment.
/// Unknown keys, bad values, and duplicate cell names are errors.
Result<std::vector<ScenarioCell>> ParseScenarioSpec(const std::string& text);

/// Runs every cell (in order) against one shared catalog and evaluates
/// all invariants, including the cross-cell monotonicity groups. Cell
/// failures land in ScenarioResult::failures; only infrastructure
/// problems (bad cell config, engine errors) fail the whole call.
Result<std::vector<ScenarioResult>> RunScenarioMatrix(
    const std::vector<ScenarioCell>& cells,
    const ScenarioMatrixOptions& options);

/// Deterministic JSON report: cells in run order, every double printed
/// with %.17g (bit-exact round trip), no timestamps or environment — the
/// same grid and seeds yield byte-identical output.
std::string ScenarioReportJson(const std::vector<ScenarioResult>& results);

/// Total invariant violations across all cells.
size_t CountScenarioFailures(const std::vector<ScenarioResult>& results);

}  // namespace liferaft::sim

#endif  // LIFERAFT_SIM_SCENARIO_MATRIX_H_
