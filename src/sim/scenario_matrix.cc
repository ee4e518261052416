#include "sim/scenario_matrix.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "util/json.h"
#include "workload/catalog_gen.h"

namespace liferaft::sim {
namespace {

using util::JsonEscape;
using util::JsonObject;

// Report doubles print with %.17g (see util/json.h): the JSON string
// doubles as the determinism digest.
std::string Fmt(double v) { return util::JsonDouble(v); }

std::string CellConfigJson(const ScenarioCell& cell) {
  JsonObject o;
  o.Str("name", cell.name);
  o.Int("queries", cell.queries);
  o.Int("trace_seed", cell.trace_seed);
  o.Str("skew", workload::SkewLevelName(cell.skew));
  o.Num("p_small", cell.p_small);
  o.Str("arrival", cell.arrivals.kind == ArrivalSpec::Kind::kTrace
                       ? (cell.arrivals.trace.empty() ? "saturated" : "trace")
                       : ArrivalKindName(cell.arrivals.kind));
  o.Num("rate_qps", cell.arrivals.rate_qps);
  o.Int("arrival_seed", cell.arrivals.seed);
  o.Int("volumes", cell.volumes);
  o.Str("placement", storage::VolumePlacementName(cell.placement));
  o.Bool("hetero", cell.hetero);
  o.Num("transfer_scale", cell.transfer_scale);
  o.Bool("spill_arm", cell.spill_arm);
  o.Int("spill_budget", cell.spill_budget);
  o.Int("cache", cell.cache);
  o.Int("prefetch_depth", cell.prefetch_depth);
  o.Num("alpha", cell.alpha);
  o.Int("interactive_max_parts", cell.interactive_max_parts);
  o.Bool("qos_sched", cell.qos_sched);
  o.Int("max_pending_queries", cell.max_pending_queries);
  o.Int("max_pending_objects", cell.max_pending_objects);
  o.Bool("expect_no_shed", cell.expect_no_shed);
  o.Bool("check_qos", cell.check_qos);
  o.Str("monotonic_group", cell.monotonic_group);
  o.Str("strictly_beats", cell.strictly_beats);
  return o.Done();
}

}  // namespace

Status ScenarioCell::Validate() const {
  if (name.empty()) return Status::InvalidArgument("cell has no name");
  if (queries == 0) {
    return Status::InvalidArgument("cell '" + name + "': queries must be > 0");
  }
  if (queries > workload::kMaxTraceQueries) {
    return Status::InvalidArgument(
        "cell '" + name + "': queries must be <= kMaxTraceQueries (" +
        std::to_string(workload::kMaxTraceQueries) + ")");
  }
  // Range tests are written so that NaN fails them.
  if (!(0.0 <= p_small && p_small <= 1.0)) {
    return Status::InvalidArgument("cell '" + name +
                                   "': p_small must be in [0, 1]");
  }
  if (volumes == 0) {
    return Status::InvalidArgument("cell '" + name + "': volumes must be > 0");
  }
  if (!(transfer_scale > 0.0)) {
    return Status::InvalidArgument("cell '" + name +
                                   "': transfer_scale must be > 0");
  }
  if (strictly_beats == name) {
    return Status::InvalidArgument("cell '" + name +
                                   "': strictly_beats must name another cell");
  }
  if (cache == 0) {
    return Status::InvalidArgument("cell '" + name + "': cache must be > 0");
  }
  if (!(0.0 <= alpha && alpha <= 1.0)) {
    return Status::InvalidArgument("cell '" + name +
                                   "': alpha must be in [0, 1]");
  }
  if (interactive_max_parts == 0) {
    return Status::InvalidArgument(
        "cell '" + name + "': interactive_max_parts must be >= 1");
  }
  // A saturated drain is the empty-trace kTrace spec (materialized at run
  // time); any other spec must validate for this cell's query count.
  if (arrivals.kind != ArrivalSpec::Kind::kTrace || !arrivals.trace.empty()) {
    Status s = arrivals.Validate(queries);
    if (!s.ok()) {
      return Status::InvalidArgument("cell '" + name + "': " + s.message());
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ built-ins --

Result<std::vector<ScenarioCell>> BuiltinScenarioGrid(
    const std::string& name) {
  std::vector<ScenarioCell> cells;
  auto base = [](const std::string& cell_name) {
    ScenarioCell cell;
    cell.name = cell_name;
    cell.arrivals.kind = ArrivalSpec::Kind::kPoisson;
    cell.arrivals.rate_qps = 0.5;
    cell.arrivals.seed = 5;
    return cell;
  };
  // A saturated drain: every query present at t=0, so makespan measures
  // pure drain capacity and the volume-sweep monotonicity claim is about
  // fixed work, not arrival luck.
  auto saturated = [&](const std::string& cell_name, size_t volumes) {
    ScenarioCell cell = base(cell_name);
    cell.arrivals.kind = ArrivalSpec::Kind::kTrace;
    cell.arrivals.trace.clear();
    cell.volumes = volumes;
    cell.prefetch_depth = 2;  // arms only overlap via prefetch bets
    cell.monotonic_group = "vol-sweep";
    cell.expect_no_shed = true;  // unbounded admission: nothing may shed
    return cell;
  };

  if (name == "smoke") {
    {
      ScenarioCell cell = base("steady-poisson");
      cell.max_pending_queries = 64;  // bound far above the offered load
      cell.expect_no_shed = true;
      cells.push_back(cell);
    }
    cells.push_back(saturated("vol-sweep-1", 1));
    cells.push_back(saturated("vol-sweep-2", 2));
    cells.push_back(saturated("vol-sweep-4", 4));
    {
      ScenarioCell cell = base("bursty-shedding");
      cell.arrivals.kind = ArrivalSpec::Kind::kBursty;
      cell.arrivals.rate_qps = 4.0;
      cell.arrivals.rate_off_qps = 0.0;
      cell.arrivals.mean_phase_ms = 30'000.0;
      cell.max_pending_queries = 3;
      cells.push_back(cell);
    }
    {
      ScenarioCell cell = base("diurnal-qos-mix");
      cell.arrivals.kind = ArrivalSpec::Kind::kDiurnal;
      cell.arrivals.amplitude = 0.8;
      cell.arrivals.period_ms = 120'000.0;
      cell.p_small = 0.6;
      cell.check_qos = true;
      cell.qos_sched = true;
      cell.interactive_max_parts = 3;  // see the full-grid note
      cell.prefetch_depth = 2;
      cells.push_back(cell);
    }
    {
      ScenarioCell cell = base("flash-crowd-spill");
      cell.arrivals.kind = ArrivalSpec::Kind::kFlashCrowd;
      cell.arrivals.rate_qps = 0.3;
      cell.arrivals.spike_factor = 10.0;
      cell.arrivals.spike_start_ms = 20'000.0;
      cell.arrivals.decay_ms = 40'000.0;
      cell.skew = workload::SkewLevel::kExtreme;
      // Below the cell's observed peak pending (~1.8k objects), so the
      // overflow path and its dedicated arm genuinely engage.
      cell.spill_budget = 800;
      cell.spill_arm = true;
      cell.prefetch_depth = 2;
      cells.push_back(cell);
    }
    // The hetero pair: one cell with an upgraded fast arm vs its all-slow
    // uniform twin, both at a fixed prefetch depth of 2. Both run the SAME
    // multi-wave arrival trace rather than a single saturated drain: in
    // one pass every bucket is read exactly once, so both makespans floor
    // at the slow arm's total read time and the comparison can only ever
    // tie. Waves re-touch buckets across cache evictions, so per-volume
    // T_b pricing — in the scheduler and in the cache's priced evictions,
    // which keep slow-arm buckets longer — has slow-arm re-reads to save,
    // which is what strictly_beats pins down.
    auto hetero_wave = [&](const std::string& cell_name) {
      ScenarioCell cell = base(cell_name);
      cell.arrivals.kind = ArrivalSpec::Kind::kTrace;
      cell.arrivals.trace.clear();
      constexpr size_t kWaves = 4;
      constexpr double kWaveGapMs = 1'500.0;
      const size_t per_wave = (cell.queries + kWaves - 1) / kWaves;
      for (size_t q = 0; q < cell.queries; ++q) {
        cell.arrivals.trace.push_back(
            static_cast<double>(q / per_wave) * kWaveGapMs);
      }
      cell.volumes = 2;
      cell.placement = storage::VolumePlacement::kHash;
      cell.prefetch_depth = 2;
      cell.expect_no_shed = true;  // unbounded admission: nothing may shed
      return cell;
    };
    {
      // All-slow uniform twin of hetero-fast-arm: both arms run at the
      // hetero cell's SLOW rate.
      ScenarioCell cell = hetero_wave("hetero-uniform-twin");
      cell.transfer_scale = 0.5;
      cells.push_back(cell);
    }
    {
      ScenarioCell cell = hetero_wave("hetero-fast-arm");
      cell.hetero = true;
      cell.strictly_beats = "hetero-uniform-twin";
      cells.push_back(cell);
    }
    return cells;
  }

  if (name == "full") {
    // The nightly sweep: arrival shape x skew, each at 1 and 4 volumes,
    // plus the smoke grid's special cells (spill, hetero, diurnal QoS
    // mix).
    const std::pair<ArrivalSpec::Kind, const char*> kinds[] = {
        {ArrivalSpec::Kind::kPoisson, "poisson"},
        {ArrivalSpec::Kind::kBursty, "bursty"},
        {ArrivalSpec::Kind::kDiurnal, "diurnal"},
        {ArrivalSpec::Kind::kFlashCrowd, "flash-crowd"},
    };
    const workload::SkewLevel skews[] = {workload::SkewLevel::kUniform,
                                         workload::SkewLevel::kDefault,
                                         workload::SkewLevel::kExtreme};
    for (const auto& [kind, kind_name] : kinds) {
      for (workload::SkewLevel skew : skews) {
        for (size_t volumes : {size_t{1}, size_t{4}}) {
          ScenarioCell cell = base(std::string(kind_name) + "-" +
                                   workload::SkewLevelName(skew) + "-v" +
                                   std::to_string(volumes));
          cell.arrivals.kind = kind;
          if (kind == ArrivalSpec::Kind::kBursty) {
            cell.arrivals.rate_qps = 2.0;
            cell.arrivals.mean_phase_ms = 30'000.0;
          }
          cell.skew = skew;
          cell.volumes = volumes;
          cell.prefetch_depth = volumes > 1 ? 2 : 0;
          cell.p_small = 0.3;
          // The QoS-ordering claim (interactive p99 <= batch p99) is made
          // on the steady Poisson cells. Scheduler depreciation is on
          // there, as in the smoke grid's diurnal cell, but the claim does
          // not rest on it: these cells report the same with it off.
          cell.check_qos = kind == ArrivalSpec::Kind::kPoisson;
          if (cell.check_qos) {
            cell.qos_sched = true;
            // Classify only genuinely small queries as interactive: at
            // the default threshold of 8 parts nearly the whole trace
            // lands in the interactive class and the comparison pits 45
            // samples against 3.
            cell.interactive_max_parts = 3;
          }
          cells.push_back(cell);
        }
      }
    }
    auto smoke = BuiltinScenarioGrid("smoke");
    for (ScenarioCell& cell : *smoke) {
      if (cell.name == "steady-poisson") continue;  // covered by the sweep
      cells.push_back(std::move(cell));
    }
    return cells;
  }

  return Status::InvalidArgument("unknown scenario grid '" + name +
                                 "' (want smoke or full)");
}

// --------------------------------------------------------------- parser --

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

Status ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1") {
    *out = true;
  } else if (value == "false" || value == "0") {
    *out = false;
  } else {
    return Status::InvalidArgument("expected a bool, got '" + value + "'");
  }
  return Status::OK();
}

// A count is decimal digits only: no sign (a "-1" that wraps asks for
// 2^64 - 1 queries), no base prefix, nothing past the type's range.
Status ParseSize(const std::string& value, size_t* out) {
  const char* end = value.data() + value.size();
  size_t v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("expected an unsigned integer, got '" +
                                   value + "'");
  }
  *out = v;
  return Status::OK();
}

Status ParseU64(const std::string& value, uint64_t* out) {
  size_t v = 0;
  Status s = ParseSize(value, &v);
  if (s.ok()) *out = v;
  return s;
}

// Finite numbers only: std::stod also reads "nan" and "inf", which every
// range test downstream would have to reject one by one.
Status ParseDouble(const std::string& value, double* out) {
  try {
    size_t pos = 0;
    double v = std::stod(value, &pos);
    if (pos != value.size() || !std::isfinite(v)) {
      throw std::invalid_argument(value);
    }
    *out = v;
  } catch (const std::exception&) {
    return Status::InvalidArgument("expected a finite number, got '" + value +
                                   "'");
  }
  return Status::OK();
}

// One `key = value` line applied to the open cell. Every key below is an
// axis of the matrix; the SCENARIO_KEY markers are greppable, and
// tools/check_docs.sh fails if docs/SCENARIOS.md misses any of them.
Status ApplyKey(ScenarioCell* cell, const std::string& key,
                const std::string& value) {
  if (key == "queries") {  // SCENARIO_KEY(queries)
    return ParseSize(value, &cell->queries);
  }
  if (key == "trace_seed") {  // SCENARIO_KEY(trace_seed)
    return ParseU64(value, &cell->trace_seed);
  }
  if (key == "skew") {  // SCENARIO_KEY(skew)
    if (value == "uniform") {
      cell->skew = workload::SkewLevel::kUniform;
    } else if (value == "default") {
      cell->skew = workload::SkewLevel::kDefault;
    } else if (value == "extreme") {
      cell->skew = workload::SkewLevel::kExtreme;
    } else {
      return Status::InvalidArgument("unknown skew '" + value + "'");
    }
    return Status::OK();
  }
  if (key == "p_small") {  // SCENARIO_KEY(p_small)
    return ParseDouble(value, &cell->p_small);
  }
  if (key == "arrival") {  // SCENARIO_KEY(arrival)
    if (value == "poisson") {
      cell->arrivals.kind = ArrivalSpec::Kind::kPoisson;
    } else if (value == "uniform") {
      cell->arrivals.kind = ArrivalSpec::Kind::kUniform;
    } else if (value == "bursty") {
      cell->arrivals.kind = ArrivalSpec::Kind::kBursty;
    } else if (value == "diurnal") {
      cell->arrivals.kind = ArrivalSpec::Kind::kDiurnal;
    } else if (value == "flash_crowd") {
      cell->arrivals.kind = ArrivalSpec::Kind::kFlashCrowd;
    } else if (value == "saturated") {
      // Everything arrives at t=0 (materialized as an all-zero trace).
      cell->arrivals.kind = ArrivalSpec::Kind::kTrace;
      cell->arrivals.trace.clear();
    } else {
      return Status::InvalidArgument("unknown arrival '" + value + "'");
    }
    return Status::OK();
  }
  if (key == "rate_qps") {  // SCENARIO_KEY(rate_qps)
    return ParseDouble(value, &cell->arrivals.rate_qps);
  }
  if (key == "rate_off_qps") {  // SCENARIO_KEY(rate_off_qps)
    return ParseDouble(value, &cell->arrivals.rate_off_qps);
  }
  if (key == "mean_phase_ms") {  // SCENARIO_KEY(mean_phase_ms)
    return ParseDouble(value, &cell->arrivals.mean_phase_ms);
  }
  if (key == "amplitude") {  // SCENARIO_KEY(amplitude)
    return ParseDouble(value, &cell->arrivals.amplitude);
  }
  if (key == "period_ms") {  // SCENARIO_KEY(period_ms)
    return ParseDouble(value, &cell->arrivals.period_ms);
  }
  if (key == "spike_factor") {  // SCENARIO_KEY(spike_factor)
    return ParseDouble(value, &cell->arrivals.spike_factor);
  }
  if (key == "spike_start_ms") {  // SCENARIO_KEY(spike_start_ms)
    return ParseDouble(value, &cell->arrivals.spike_start_ms);
  }
  if (key == "decay_ms") {  // SCENARIO_KEY(decay_ms)
    return ParseDouble(value, &cell->arrivals.decay_ms);
  }
  if (key == "arrival_seed") {  // SCENARIO_KEY(arrival_seed)
    return ParseU64(value, &cell->arrivals.seed);
  }
  if (key == "volumes") {  // SCENARIO_KEY(volumes)
    return ParseSize(value, &cell->volumes);
  }
  if (key == "placement") {  // SCENARIO_KEY(placement)
    if (value == "range") {
      cell->placement = storage::VolumePlacement::kRange;
    } else if (value == "hash") {
      cell->placement = storage::VolumePlacement::kHash;
    } else {
      return Status::InvalidArgument("unknown placement '" + value + "'");
    }
    return Status::OK();
  }
  if (key == "hetero") {  // SCENARIO_KEY(hetero)
    return ParseBool(value, &cell->hetero);
  }
  if (key == "transfer_scale") {  // SCENARIO_KEY(transfer_scale)
    return ParseDouble(value, &cell->transfer_scale);
  }
  if (key == "spill_arm") {  // SCENARIO_KEY(spill_arm)
    return ParseBool(value, &cell->spill_arm);
  }
  if (key == "spill_budget") {  // SCENARIO_KEY(spill_budget)
    return ParseU64(value, &cell->spill_budget);
  }
  if (key == "cache") {  // SCENARIO_KEY(cache)
    return ParseSize(value, &cell->cache);
  }
  if (key == "prefetch_depth") {  // SCENARIO_KEY(prefetch_depth)
    return ParseSize(value, &cell->prefetch_depth);
  }
  if (key == "alpha") {  // SCENARIO_KEY(alpha)
    return ParseDouble(value, &cell->alpha);
  }
  if (key == "interactive_max_parts") {  // SCENARIO_KEY(interactive_max_parts)
    return ParseSize(value, &cell->interactive_max_parts);
  }
  if (key == "qos_sched") {  // SCENARIO_KEY(qos_sched)
    return ParseBool(value, &cell->qos_sched);
  }
  if (key == "max_pending_queries") {  // SCENARIO_KEY(max_pending_queries)
    return ParseSize(value, &cell->max_pending_queries);
  }
  if (key == "max_pending_objects") {  // SCENARIO_KEY(max_pending_objects)
    return ParseU64(value, &cell->max_pending_objects);
  }
  if (key == "expect_no_shed") {  // SCENARIO_KEY(expect_no_shed)
    return ParseBool(value, &cell->expect_no_shed);
  }
  if (key == "check_qos") {  // SCENARIO_KEY(check_qos)
    return ParseBool(value, &cell->check_qos);
  }
  if (key == "monotonic_group") {  // SCENARIO_KEY(monotonic_group)
    cell->monotonic_group = value;
    return Status::OK();
  }
  if (key == "strictly_beats") {  // SCENARIO_KEY(strictly_beats)
    cell->strictly_beats = value;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown key '" + key + "'");
}

}  // namespace

Result<std::vector<ScenarioCell>> ParseScenarioSpec(const std::string& text) {
  std::vector<ScenarioCell> cells;
  std::istringstream in(text);
  std::string raw;
  size_t line_no = 0;
  auto fail = [&](const std::string& msg) {
    return Status::InvalidArgument("spec line " + std::to_string(line_no) +
                                   ": " + msg);
  };
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') return fail("unterminated cell header");
      std::string name = Trim(line.substr(1, line.size() - 2));
      if (name.empty()) return fail("empty cell name");
      for (const ScenarioCell& cell : cells) {
        if (cell.name == name) return fail("duplicate cell '" + name + "'");
      }
      ScenarioCell cell;
      cell.name = name;
      cells.push_back(std::move(cell));
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected 'key = value'");
    if (cells.empty()) return fail("key outside any [cell] section");
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    Status s = ApplyKey(&cells.back(), key, value);
    if (!s.ok()) return fail(s.message());
  }
  if (cells.empty()) return Status::InvalidArgument("spec defines no cells");
  for (const ScenarioCell& cell : cells) {
    Status s = cell.Validate();
    if (!s.ok()) return s;
  }
  return cells;
}

// --------------------------------------------------------------- runner --

namespace {

Result<RunMetrics> RunCell(const ScenarioCell& cell,
                           const ScenarioMatrixOptions& options,
                           storage::Catalog* catalog,
                           const std::vector<query::CrossMatchQuery>& trace) {
  EngineConfig config;
  config.cache_capacity = cell.cache;
  config.topology.num_volumes = cell.volumes;
  config.topology.placement = cell.placement;
  config.topology.spill_arm = cell.spill_arm;
  if (cell.hetero) {
    // Heterogeneous axis: volume 0 is the slow arm (half transfer rate).
    config.topology.volume_disk.assign(cell.volumes,
                                       storage::DiskModelParams{});
    config.topology.volume_disk[0].transfer_mb_per_s /= 2.0;
  }
  if (cell.transfer_scale != 1.0) {
    // Uniform hardware scaling (applied after the hetero halving): a cell
    // with transfer_scale = 0.5 is the all-slow uniform twin of a hetero
    // cell, which is what the strictly_beats invariant compares against.
    if (config.topology.volume_disk.empty()) {
      config.topology.volume_disk.assign(cell.volumes,
                                         storage::DiskModelParams{});
    }
    for (storage::DiskModelParams& params : config.topology.volume_disk) {
      params.transfer_mb_per_s *= cell.transfer_scale;
    }
  }
  if (cell.prefetch_depth > 0) {
    config.enable_prefetch = true;
    config.prefetch_depth = cell.prefetch_depth;
  }
  if (cell.spill_budget > 0) {
    if (options.spill_dir.empty()) {
      return Status::InvalidArgument(
          "cell '" + cell.name +
          "' has a spill budget but ScenarioMatrixOptions::spill_dir is "
          "empty");
    }
    config.spill_path =
        options.spill_dir + "/scenario_" + cell.name + ".spill";
    config.workload_memory_budget = cell.spill_budget;
  }
  sched::LifeRaftConfig lr;
  lr.alpha = cell.alpha;
  lr.qos.depreciate_long_queries = cell.qos_sched;
  auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
      catalog->store(), storage::DiskModel{}, lr);

  ServeConfig serve;
  serve.arrivals = cell.arrivals;
  if (serve.arrivals.kind == ArrivalSpec::Kind::kTrace &&
      serve.arrivals.trace.empty()) {
    serve.arrivals.trace.assign(trace.size(), 0.0);  // saturated drain
  }
  serve.interactive_max_parts = cell.interactive_max_parts;
  serve.max_pending_queries = cell.max_pending_queries;
  serve.max_pending_objects = cell.max_pending_objects;

  SimEngine engine(catalog, std::move(scheduler), config);
  return engine.Serve(trace, serve);
}

void CheckCellInvariants(ScenarioResult* result) {
  const ScenarioCell& cell = result->cell;
  const RunMetrics& m = result->metrics;
  if (cell.expect_no_shed && m.queries_shed != 0) {
    result->failures.push_back(
        "expect_no_shed: " + std::to_string(m.queries_shed) +
        " queries shed below the admission bound");
  }
  if (cell.check_qos) {
    const QosClassMetrics* interactive = nullptr;
    const QosClassMetrics* batch = nullptr;
    for (const QosClassMetrics& qc : m.qos_classes) {
      if (qc.name == QosClassName(QosClass::kInteractive)) interactive = &qc;
      if (qc.name == QosClassName(QosClass::kBatch)) batch = &qc;
    }
    if (interactive == nullptr || batch == nullptr ||
        interactive->completed == 0 || batch->completed == 0) {
      result->failures.push_back(
          "check_qos: needs completions in both QoS classes");
    } else if (interactive->p99_response_ms > batch->p99_response_ms) {
      result->failures.push_back(
          "check_qos: interactive p99 " + Fmt(interactive->p99_response_ms) +
          " ms exceeds batch p99 " + Fmt(batch->p99_response_ms) + " ms");
    }
  }
}

// Pairwise cross-cell bound: a cell naming another via `strictly_beats`
// claims its makespan is strictly below the named cell's (parity fails).
// That is how the hetero cell pins down that per-volume T_b pricing
// actually converts the fast arm into a measurable win over the all-slow
// uniform twin, rather than merely doing no harm.
void CheckPairwiseBounds(std::vector<ScenarioResult>* results) {
  std::map<std::string, const ScenarioResult*> by_name;
  for (const ScenarioResult& r : *results) by_name[r.cell.name] = &r;
  for (ScenarioResult& r : *results) {
    const std::string& ref_name = r.cell.strictly_beats;
    if (ref_name.empty()) continue;
    auto it = by_name.find(ref_name);
    if (it == by_name.end()) {
      r.failures.push_back("strictly_beats: no cell named '" + ref_name +
                           "' in this matrix");
      continue;
    }
    const RunMetrics& ref = it->second->metrics;
    if (r.metrics.makespan_ms >= ref.makespan_ms) {
      r.failures.push_back("strictly_beats(" + ref_name + "): makespan " +
                           Fmt(r.metrics.makespan_ms) +
                           " ms not strictly below " +
                           Fmt(ref.makespan_ms) + " ms");
    }
  }
}

void CheckMonotonicGroups(std::vector<ScenarioResult>* results) {
  std::map<std::string, std::vector<ScenarioResult*>> groups;
  for (ScenarioResult& r : *results) {
    if (!r.cell.monotonic_group.empty()) {
      groups[r.cell.monotonic_group].push_back(&r);
    }
  }
  for (auto& [group, members] : groups) {
    std::sort(members.begin(), members.end(),
              [](const ScenarioResult* a, const ScenarioResult* b) {
                return a->cell.volumes < b->cell.volumes;
              });
    for (size_t i = 1; i < members.size(); ++i) {
      const ScenarioResult& prev = *members[i - 1];
      ScenarioResult& cur = *members[i];
      if (cur.metrics.makespan_ms > prev.metrics.makespan_ms) {
        cur.failures.push_back(
            "monotonicity(" + group + "): " +
            std::to_string(cur.cell.volumes) + " volumes makespan " +
            Fmt(cur.metrics.makespan_ms) + " ms worse than " +
            std::to_string(prev.cell.volumes) + " volumes (" +
            Fmt(prev.metrics.makespan_ms) + " ms)");
      }
    }
  }
}

}  // namespace

Result<std::vector<ScenarioResult>> RunScenarioMatrix(
    const std::vector<ScenarioCell>& cells,
    const ScenarioMatrixOptions& options) {
  for (size_t i = 0; i < cells.size(); ++i) {
    Status s = cells[i].Validate();
    if (!s.ok()) return s;
    for (size_t j = 0; j < i; ++j) {
      if (cells[j].name == cells[i].name) {
        return Status::InvalidArgument("duplicate cell '" + cells[i].name +
                                       "'");
      }
    }
  }

  // One shared catalog: cells differ in workload and configuration, never
  // in the archive, so cross-cell comparisons (the monotonicity groups)
  // are apples to apples.
  workload::CatalogGenConfig gen;
  gen.num_objects = options.catalog_objects;
  gen.seed = options.catalog_seed;
  auto objects = workload::GenerateCatalog(gen);
  if (!objects.ok()) return objects.status();
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = options.objects_per_bucket;
  auto catalog = storage::Catalog::Build(std::move(*objects), catalog_options);
  if (!catalog.ok()) return catalog.status();

  std::vector<ScenarioResult> results;
  results.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    workload::TraceConfig tc =
        workload::SkewedTracePreset(cell.skew, cell.queries, cell.trace_seed);
    tc.p_small = cell.p_small;
    // Keep cells cheap enough for a per-PR gate: the serving behavior the
    // invariants check is driven by scheduling and I/O, not by match
    // volume, so cap fan-in the way the serving tests do.
    tc.max_objects_per_query = 1500;
    tc.match_radius_arcsec = 900.0;
    auto trace = workload::GenerateTrace(tc);
    if (!trace.ok()) return trace.status();

    auto metrics = RunCell(cell, options, catalog->get(), *trace);
    if (!metrics.ok()) {
      return Status::InvalidArgument("cell '" + cell.name +
                                     "': " + metrics.status().message());
    }
    ScenarioResult result;
    result.cell = cell;
    result.metrics = std::move(*metrics);
    if (options.verify_determinism) {
      auto replay = RunCell(cell, options, catalog->get(), *trace);
      if (!replay.ok()) return replay.status();
      if (RunMetricsJson(*replay) != RunMetricsJson(result.metrics)) {
        result.failures.push_back(
            "determinism: second run diverged from the first");
      }
    }
    CheckCellInvariants(&result);
    results.push_back(std::move(result));
  }
  CheckMonotonicGroups(&results);
  CheckPairwiseBounds(&results);
  return results;
}

std::string ScenarioReportJson(const std::vector<ScenarioResult>& results) {
  std::string out = "{\n  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    JsonObject o;
    o.Str("name", r.cell.name);
    o.Field("config", CellConfigJson(r.cell));
    o.Field("metrics", RunMetricsJson(r.metrics));
    std::string failures = "[";
    for (size_t f = 0; f < r.failures.size(); ++f) {
      if (f > 0) failures += ", ";
      failures += "\"";
      failures += JsonEscape(r.failures[f]);
      failures += "\"";
    }
    failures += "]";
    o.Field("failures", failures);
    out += "    ";
    out += o.Done();
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"total_failures\": " +
         std::to_string(CountScenarioFailures(results)) + "\n}\n";
  return out;
}

size_t CountScenarioFailures(const std::vector<ScenarioResult>& results) {
  size_t n = 0;
  for (const ScenarioResult& r : results) n += r.failures.size();
  return n;
}

}  // namespace liferaft::sim
