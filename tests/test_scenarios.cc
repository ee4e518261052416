// Tests for the scenario-matrix harness: spec parsing (mutated specs
// included), the built-in grids, cell validation, invariant evaluation,
// and the two golden matrices (three serving cells, eight pipeline cells)
// whose JSON reports must stay byte-identical (tests/data/).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario_matrix.h"
#include "util/random.h"

namespace liferaft::sim {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------- parsing --

// A spec that sets most keys, for the parse test and as a mutation seed.
constexpr char kKeysSpec[] = R"(# a comment
[first]
queries = 12
trace_seed = 9
skew = extreme
p_small = 0.5
arrival = diurnal       # trailing comment
amplitude = 0.8
period_ms = 120000
arrival_seed = 3
volumes = 4
placement = hash
hetero = true
spill_arm = true
spill_budget = 20000
cache = 10
prefetch_depth = 2
alpha = 0.5
interactive_max_parts = 4
max_pending_queries = 8
max_pending_objects = 100000
expect_no_shed = false
check_qos = true
monotonic_group = sweep

[second]
arrival = saturated
strictly_beats = first
)";

TEST(ScenarioSpecTest, ParsesCellsAndKeys) {
  auto cells = ParseScenarioSpec(kKeysSpec);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), 2u);
  const ScenarioCell& c = (*cells)[0];
  EXPECT_EQ(c.name, "first");
  EXPECT_EQ(c.queries, 12u);
  EXPECT_EQ(c.trace_seed, 9u);
  EXPECT_EQ(c.skew, workload::SkewLevel::kExtreme);
  EXPECT_DOUBLE_EQ(c.p_small, 0.5);
  EXPECT_EQ(c.arrivals.kind, ArrivalSpec::Kind::kDiurnal);
  EXPECT_DOUBLE_EQ(c.arrivals.amplitude, 0.8);
  EXPECT_DOUBLE_EQ(c.arrivals.period_ms, 120'000.0);
  EXPECT_EQ(c.arrivals.seed, 3u);
  EXPECT_EQ(c.volumes, 4u);
  EXPECT_EQ(c.placement, storage::VolumePlacement::kHash);
  EXPECT_TRUE(c.hetero);
  EXPECT_TRUE(c.spill_arm);
  EXPECT_EQ(c.spill_budget, 20'000u);
  EXPECT_EQ(c.cache, 10u);
  EXPECT_EQ(c.prefetch_depth, 2u);
  EXPECT_DOUBLE_EQ(c.alpha, 0.5);
  EXPECT_EQ(c.interactive_max_parts, 4u);
  EXPECT_EQ(c.max_pending_queries, 8u);
  EXPECT_EQ(c.max_pending_objects, 100'000u);
  EXPECT_FALSE(c.expect_no_shed);
  EXPECT_TRUE(c.check_qos);
  EXPECT_EQ(c.monotonic_group, "sweep");

  // The saturated shorthand: an empty kTrace spec, materialized at run
  // time as everything arriving at t=0.
  const ScenarioCell& s = (*cells)[1];
  EXPECT_EQ(s.arrivals.kind, ArrivalSpec::Kind::kTrace);
  EXPECT_TRUE(s.arrivals.trace.empty());
  EXPECT_EQ(s.strictly_beats, "first");
}

TEST(ScenarioSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseScenarioSpec("").ok());
  EXPECT_FALSE(ParseScenarioSpec("queries = 5\n").ok());  // outside a cell
  EXPECT_FALSE(ParseScenarioSpec("[a]\nnot a kv line\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\nbogus_key = 1\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\nqueries = twelve\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\nskew = sideways\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\n[a]\n").ok());  // duplicate name
  EXPECT_FALSE(ParseScenarioSpec("[a\nqueries = 5\n").ok());
  // Per-cell validation runs on the parsed result.
  EXPECT_FALSE(ParseScenarioSpec("[a]\nqueries = 0\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\np_small = 1.5\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\nalpha = 2.0\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[a]\nrate_qps = 0\n").ok());
  // Specs that would abort or never finish a run fail at parse time.
  EXPECT_FALSE(ParseScenarioSpec("[a]\nqueries = 1000000000000\n").ok());
  EXPECT_FALSE(ParseScenarioSpec("[c]\narrival = bursty\nrate_qps = 4\n"
                                 "mean_phase_ms = 1e-300\nqueries = 8\n")
                   .ok());
}

// A count is digits only and a number must be finite: a "-1" that wraps
// to 2^64 - 1 queries aborts the run that reserves them, and a NaN or an
// infinity passes range tests. Each is refused naming its spec line.
TEST(ScenarioSpecTest, RejectsSignedAndNonFiniteValues) {
  struct Case {
    const char* spec;
    const char* line;
  };
  for (const Case& c : {Case{"[a]\nqueries = -1\n", "spec line 2"},
                        Case{"[a]\nqueries = +7\n", "spec line 2"},
                        Case{"[a]\ncache = -3\n", "spec line 2"},
                        Case{"[a]\nalpha = nan\n", "spec line 2"},
                        Case{"[a]\np_small = nan\n", "spec line 2"},
                        Case{"[a]\ntransfer_scale = inf\n", "spec line 2"},
                        Case{"[a]\narrival = poisson\nrate_qps = inf\n",
                             "spec line 3"}}) {
    SCOPED_TRACE(c.spec);
    auto cells = ParseScenarioSpec(c.spec);
    ASSERT_FALSE(cells.ok());
    EXPECT_EQ(cells.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cells.status().message().find(c.line), std::string::npos)
        << cells.status().ToString();
  }
  // A cell built in code skips the parser; its range tests refuse NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioCell cell;
  cell.name = "nan";
  cell.alpha = nan;
  EXPECT_FALSE(cell.Validate().ok());
  cell.alpha = 0.25;
  cell.p_small = nan;
  EXPECT_FALSE(cell.Validate().ok());
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// ParseScenarioSpec reads whatever file the runner is handed, so no
// mutant of a real spec may crash or throw: it parses, or it fails with
// InvalidArgument. The seeds are both golden specs and kKeysSpec; the
// mutations are bit flips, a line (or a cell header) deleted, duplicated
// or moved, truncation, and one value replaced from a pool of hostile
// literals. Every cell of a spec that parses must validate, with finite
// doubles. Nothing is run. tools/ci.sh --asan runs this.
TEST(ScenarioSpecMutationTest, MutantsParseOrFailWithInvalidArgument) {
  const std::string dir = LIFERAFT_TEST_DATA_DIR;
  const std::string seeds[] = {
      ReadFileOrDie(dir + "/scenario_golden.spec"),
      ReadFileOrDie(dir + "/pipeline_golden.spec"), kKeysSpec};
  const char* const hostile[] = {"-1",    "+7",
                                 "nan",   "-inf",
                                 "1e309", "18446744073709551616",
                                 "0x10",  ""};

  constexpr int kMutants = 5000;
  Rng rng(4111);
  int parsed_ok = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string& seed = seeds[m % std::size(seeds)];
    std::vector<std::string> lines = SplitLines(seed);
    std::vector<size_t> headers;
    std::vector<size_t> keys;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind('[', 0) == 0) headers.push_back(i);
      if (lines[i].find('=') != std::string::npos) keys.push_back(i);
    }
    // A line to delete, duplicate or move: a cell header one time in
    // three, else any line.
    const auto some_line = [&] {
      return rng.UniformU64(3) == 0
                 ? headers[rng.UniformU64(headers.size())]
                 : static_cast<size_t>(rng.UniformU64(lines.size()));
    };
    std::string text;
    switch (rng.UniformU64(6)) {
      case 0: {  // bit flips
        text = seed;
        const int flips = 1 + static_cast<int>(rng.UniformU64(4));
        for (int e = 0; e < flips; ++e) {
          text[rng.UniformU64(text.size())] ^=
              static_cast<char>(1 << rng.UniformU64(8));
        }
        break;
      }
      case 1:  // a line deleted
        lines.erase(lines.begin() + static_cast<ptrdiff_t>(some_line()));
        text = JoinLines(lines);
        break;
      case 2: {  // a line duplicated somewhere
        const std::string copy = lines[some_line()];
        lines.insert(lines.begin() + static_cast<ptrdiff_t>(rng.UniformU64(
                                         lines.size() + 1)),
                     copy);
        text = JoinLines(lines);
        break;
      }
      case 3: {  // a line moved somewhere else
        const size_t from = some_line();
        const std::string moved = lines[from];
        lines.erase(lines.begin() + static_cast<ptrdiff_t>(from));
        lines.insert(lines.begin() + static_cast<ptrdiff_t>(
                                         rng.UniformU64(lines.size() + 1)),
                     moved);
        text = JoinLines(lines);
        break;
      }
      case 4:  // truncation
        text = seed.substr(0, rng.UniformU64(seed.size()));
        break;
      default: {  // one value replaced by a hostile literal
        std::string& line = lines[keys[rng.UniformU64(keys.size())]];
        line = line.substr(0, line.find('=') + 1) + " " +
               hostile[rng.UniformU64(std::size(hostile))];
        text = JoinLines(lines);
        break;
      }
    }

    SCOPED_TRACE("mutant " + std::to_string(m) + ":\n" + text);
    auto cells = ParseScenarioSpec(text);
    if (!cells.ok()) {
      ASSERT_EQ(cells.status().code(), StatusCode::kInvalidArgument)
          << cells.status().ToString();
      continue;
    }
    ++parsed_ok;
    for (const ScenarioCell& c : *cells) {
      ASSERT_TRUE(c.Validate().ok()) << c.name;
      for (double v : {c.p_small, c.arrivals.rate_qps,
                       c.arrivals.rate_off_qps, c.arrivals.mean_phase_ms,
                       c.arrivals.amplitude, c.arrivals.period_ms,
                       c.arrivals.spike_factor, c.arrivals.spike_start_ms,
                       c.arrivals.decay_ms, c.transfer_scale, c.alpha}) {
        ASSERT_TRUE(std::isfinite(v)) << c.name;
      }
    }
  }
  // Both outcomes occur: mutants parse, and mutants are refused.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, kMutants);
}

TEST(ScenarioCellTest, ValidateChecksRanges) {
  ScenarioCell cell;
  cell.name = "ok";
  EXPECT_TRUE(cell.Validate().ok());
  cell.volumes = 0;
  EXPECT_FALSE(cell.Validate().ok());
  cell.volumes = 1;
  cell.cache = 0;
  EXPECT_FALSE(cell.Validate().ok());
  cell.cache = 20;
  // More queries than a trace may hold fails here, before the catalog or
  // any trace is built.
  cell.queries = workload::kMaxTraceQueries + 1;
  EXPECT_FALSE(cell.Validate().ok());
  cell.queries = 48;
  cell.name.clear();
  EXPECT_FALSE(cell.Validate().ok());
}

// ------------------------------------------------------- built-in grids --

TEST(ScenarioGridTest, SmokeGridShape) {
  auto cells = BuiltinScenarioGrid("smoke");
  ASSERT_TRUE(cells.ok());
  EXPECT_GE(cells->size(), 6u);
  // Every axis of the matrix appears somewhere in the smoke subset.
  bool has_multi_volume = false, has_qos = false, has_spill = false,
       has_hetero = false, has_monotonic = false, has_no_shed = false,
       has_strict = false;
  for (const ScenarioCell& cell : *cells) {
    EXPECT_TRUE(cell.Validate().ok()) << cell.name;
    has_multi_volume |= cell.volumes > 1;
    has_qos |= cell.check_qos;
    has_spill |= cell.spill_budget > 0 && cell.spill_arm;
    has_hetero |= cell.hetero;
    has_monotonic |= !cell.monotonic_group.empty();
    has_no_shed |= cell.expect_no_shed;
    has_strict |= !cell.strictly_beats.empty();
  }
  EXPECT_TRUE(has_multi_volume);
  EXPECT_TRUE(has_qos);
  EXPECT_TRUE(has_spill);
  EXPECT_TRUE(has_hetero);
  EXPECT_TRUE(has_monotonic);
  EXPECT_TRUE(has_no_shed);
  EXPECT_TRUE(has_strict);
}

TEST(ScenarioGridTest, FullGridIsLargerAndValid) {
  auto smoke = BuiltinScenarioGrid("smoke");
  auto full = BuiltinScenarioGrid("full");
  ASSERT_TRUE(smoke.ok() && full.ok());
  EXPECT_GT(full->size(), smoke->size());
  for (const ScenarioCell& cell : *full) {
    EXPECT_TRUE(cell.Validate().ok()) << cell.name;
  }
}

TEST(ScenarioGridTest, UnknownGridIsAnError) {
  EXPECT_FALSE(BuiltinScenarioGrid("medium").ok());
}

// -------------------------------------------------------------- running --

// Runs tests/data/<stem>.spec and checks that every cell passes its
// invariants and that the JSON report reproduces <stem>.json byte for
// byte. This is the determinism claim of docs/SCENARIOS.md made
// enforceable, and it also locks the report schema (a schema change must
// regenerate the golden).
void ExpectGoldenReport(const std::string& stem, size_t expected_cells,
                        const std::string& spill_dir) {
  const std::string dir = LIFERAFT_TEST_DATA_DIR;
  auto cells = ParseScenarioSpec(ReadFileOrDie(dir + "/" + stem + ".spec"));
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), expected_cells);

  ScenarioMatrixOptions options;
  options.spill_dir = spill_dir;
  auto results = RunScenarioMatrix(*cells, options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (const ScenarioResult& r : *results) {
    EXPECT_TRUE(r.failures.empty())
        << r.cell.name << ": " << r.failures.front();
  }
  EXPECT_EQ(ScenarioReportJson(*results),
            ReadFileOrDie(dir + "/" + stem + ".json"));
}

// The golden matrix: three tiny serving cells checked into tests/data/.
TEST(ScenarioMatrixTest, GoldenThreeCellReportIsByteIdentical) {
  ExpectGoldenReport("scenario_golden", 3, /*spill_dir=*/"");
}

// The pipeline golden: eight cells that together drive every modeled
// branch of exec::BatchPipeline::Step (no prefetch, depth 1, depth 2 on
// four arms, hetero arms whose re-reads the cache prices, spill restores
// on the bucket arm and on a spill arm, depth 4 under open-loop mixed
// arrivals, bursty arrivals). Any change to the modeled accounting or to the cache's
// victim order moves a number in the report.
TEST(ScenarioMatrixTest, PipelineGoldenReportIsByteIdentical) {
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() /
      ("liferaft_pipeline_golden_" + std::to_string(::getpid()));
  std::filesystem::create_directories(spill_dir);
  ExpectGoldenReport("pipeline_golden", 8, spill_dir.string());
  std::filesystem::remove_all(spill_dir);
}

// The smoke grid runs the hetero pair at depth 2; priced eviction must
// make the fast arm a strict win over the all-slow twin at every fixed
// depth, not just that one. (Under plain LRU depths 2-4 fail.)
TEST(ScenarioMatrixTest, HeteroPairStrictlyBeatsItsTwinAtEveryFixedDepth) {
  auto smoke = BuiltinScenarioGrid("smoke");
  ASSERT_TRUE(smoke.ok());
  std::vector<ScenarioCell> pair;
  for (const ScenarioCell& cell : *smoke) {
    if (cell.name == "hetero-uniform-twin" ||
        cell.strictly_beats == "hetero-uniform-twin") {
      pair.push_back(cell);
    }
  }
  ASSERT_EQ(pair.size(), 2u);
  ASSERT_EQ(pair[0].name, "hetero-uniform-twin");
  ScenarioMatrixOptions options;
  options.verify_determinism = false;
  for (size_t depth = 1; depth <= 4; ++depth) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    for (ScenarioCell& cell : pair) cell.prefetch_depth = depth;
    auto results = RunScenarioMatrix(pair, options);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 2u);
    for (const ScenarioResult& r : *results) {
      EXPECT_TRUE(r.failures.empty())
          << r.cell.name << ": " << r.failures.front();
    }
    EXPECT_LT((*results)[1].metrics.makespan_ms,
              (*results)[0].metrics.makespan_ms);
  }
}

TEST(ScenarioMatrixTest, InvariantFailuresAreReported) {
  // A no-shed claim that cannot hold: a saturated drain against a
  // one-query admission bound must shed, so expect_no_shed fails the cell
  // (rather than passing vacuously).
  ScenarioCell cell;
  cell.name = "impossible-no-shed";
  cell.queries = 8;
  cell.arrivals.kind = ArrivalSpec::Kind::kTrace;
  cell.arrivals.trace.clear();
  cell.max_pending_queries = 1;
  cell.expect_no_shed = true;
  ScenarioMatrixOptions options;
  options.verify_determinism = false;
  auto results = RunScenarioMatrix({cell}, options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  ASSERT_EQ((*results)[0].failures.size(), 1u);
  EXPECT_NE((*results)[0].failures[0].find("expect_no_shed"),
            std::string::npos);
  EXPECT_EQ(CountScenarioFailures(*results), 1u);
}

TEST(ScenarioMatrixTest, DuplicateCellNamesAreRejected) {
  ScenarioCell cell;
  cell.name = "twin";
  cell.queries = 4;
  ScenarioMatrixOptions options;
  EXPECT_FALSE(RunScenarioMatrix({cell, cell}, options).ok());
}

TEST(ScenarioMatrixTest, SpillCellWithoutSpillDirIsAnError) {
  ScenarioCell cell;
  cell.name = "spiller";
  cell.queries = 4;
  cell.spill_budget = 1000;
  ScenarioMatrixOptions options;
  options.spill_dir.clear();
  EXPECT_FALSE(RunScenarioMatrix({cell}, options).ok());
}

}  // namespace
}  // namespace liferaft::sim
