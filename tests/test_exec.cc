// Tests for exec::BatchPipeline, the unified pick→prefetch→claim→
// evaluate→account loop shared by core::LifeRaft and sim::SimEngine's
// shared mode. The key contracts:
//  * join results (per-query match counts) are invariant across prefetch
//    depths, because scheduling only reorders work, never changes
//    matching;
//  * depth-K prefetching hides at least as much fetch latency as the
//    single-bet pipeline on a saturated drain, and every bet of a
//    completed drain is claimed;
//  * the core facade, now routed through the same pipeline, gets working
//    prefetch for free;
//  * both drivers build one execution stack, so a facade drain equals an
//    engine Run bit for bit.

#include "exec/batch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/liferaft.h"
#include "join/evaluator.h"
#include "query/workload.h"
#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::exec {
namespace {

TEST(BatchPipelineTest, EmptyManagerYieldsNoStep) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 2000;
  gen.seed = 7;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  storage::CatalogOptions options;
  options.objects_per_bucket = 500;
  auto catalog = storage::Catalog::Build(std::move(*objects), options);
  ASSERT_TRUE(catalog.ok());

  storage::BucketCache cache((*catalog)->store(), 4);
  join::JoinEvaluator evaluator(&cache, (*catalog)->index(),
                                storage::DiskModel{}, join::HybridConfig{});
  query::WorkloadManager manager((*catalog)->num_buckets());
  sched::LifeRaftScheduler scheduler((*catalog)->store(),
                                     storage::DiskModel{},
                                     sched::LifeRaftConfig{});
  PipelineConfig config;
  config.enable_prefetch = true;
  BatchPipeline pipeline(&scheduler, &manager, &evaluator, config);

  auto step = pipeline.Step(0.0, /*collect_matches=*/true);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_FALSE(step->has_value());
  EXPECT_EQ(pipeline.pending_prefetches(), 0u);
  EXPECT_EQ(pipeline.prefetch_hidden_ms(), 0.0);
  pipeline.CancelOutstandingPrefetches();  // no-op on an idle pipeline
}

// One Validate serves the pipeline, the engine, and the facade.
TEST(PipelineConfigTest, ValidateRejectsBadDepths) {
  PipelineConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.prefetch_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.enable_prefetch = true;
  EXPECT_FALSE(config.Validate().ok());
  config.prefetch_depth = 8;  // any depth from 1 up is valid
  EXPECT_TRUE(config.Validate().ok());
}

// ------------------------------------------------ engine-level fixtures --

class PipelineDrainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 30'000;
    gen.seed = 21;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    catalog_objects_ = std::move(*objects);

    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;  // 30 buckets
    auto catalog = storage::Catalog::Build(catalog_objects_, options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc;
    tc.num_queries = 40;
    tc.max_objects_per_query = 1200;
    tc.match_radius_arcsec = 900.0;
    tc.seed = 23;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
    arrivals_.assign(trace_.size(), 0.0);  // saturated drain
  }

  std::unique_ptr<sched::Scheduler> LifeRaftSched() {
    sched::LifeRaftConfig config;
    config.alpha = 0.25;
    return std::make_unique<sched::LifeRaftScheduler>(
        catalog_->store(), storage::DiskModel{}, config);
  }

  /// Runs a shared-mode drain under `scheduler` and returns (metrics,
  /// per-query matches).
  sim::RunMetrics DrainWith(std::unique_ptr<sched::Scheduler> scheduler,
                            const sim::EngineConfig& config,
                            std::map<query::QueryId, uint64_t>* matches) {
    sim::SimEngine engine(catalog_.get(), std::move(scheduler), config);
    auto metrics = engine.Run(trace_, arrivals_);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (matches != nullptr) {
      matches->clear();
      for (const sim::QueryOutcome& o : engine.outcomes()) {
        (*matches)[o.id] = o.matches;
      }
    }
    return metrics.ok() ? *metrics : sim::RunMetrics{};
  }

  /// Runs a shared-mode drain and returns (metrics, per-query matches).
  sim::RunMetrics Drain(const sim::EngineConfig& config,
                        std::map<query::QueryId, uint64_t>* matches) {
    return DrainWith(LifeRaftSched(), config, matches);
  }

  std::vector<storage::CatalogObject> catalog_objects_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
  std::vector<TimeMs> arrivals_;
};

// The acceptance matrix: a drain at prefetch_depth ∈ {1,2} must produce
// byte-identical join results (every query's match count) to the serial
// non-prefetch baseline, while each prefetch config hides fetch latency
// and shrinks the saturated-drain makespan.
TEST_F(PipelineDrainFixture, ResultsInvariantAcrossDepth) {
  sim::EngineConfig base_config;
  base_config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  sim::RunMetrics base = Drain(base_config, &base_matches);
  ASSERT_EQ(base.queries_completed, trace_.size());

  for (size_t depth : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    sim::EngineConfig config = base_config;
    config.enable_prefetch = true;
    config.prefetch_depth = depth;
    std::map<query::QueryId, uint64_t> matches;
    sim::RunMetrics metrics = Drain(config, &matches);
    EXPECT_EQ(metrics.queries_completed, base.queries_completed);
    EXPECT_EQ(metrics.total_matches, base.total_matches);
    EXPECT_EQ(matches, base_matches)
        << "per-query match counts must not depend on prefetch";
    EXPECT_GT(metrics.prefetch_hidden_ms, 0.0);
    EXPECT_GT(storage::SumOverArms(metrics.volumes).prefetch_claims, 0u);
    EXPECT_LT(metrics.makespan_ms, base.makespan_ms)
        << "hidden fetch latency must shrink a saturated drain";
  }
}

// Pipelining hides (part of) the next bucket's T_b behind the current
// batch's T_m matching time, so the virtual makespan must shrink while the
// join results stay exact.
TEST_F(PipelineDrainFixture, PrefetchPipelineReducesVirtualMakespan) {
  sim::EngineConfig config;
  config.collect_matches = true;
  // Saturated drain: with every query queued at t=0 the makespan is pure
  // busy time, so hidden fetch latency translates directly into makespan
  // (an open system at low load absorbs the savings into idle gaps).
  std::vector<TimeMs> arrivals(trace_.size(), 0.0);

  sim::SimEngine base(catalog_.get(), LifeRaftSched(), config);
  auto base_metrics = base.Run(trace_, arrivals);
  ASSERT_TRUE(base_metrics.ok()) << base_metrics.status().ToString();

  config.enable_prefetch = true;
  sim::SimEngine pipelined(catalog_.get(), LifeRaftSched(), config);
  auto pipe_metrics = pipelined.Run(trace_, arrivals);
  ASSERT_TRUE(pipe_metrics.ok()) << pipe_metrics.status().ToString();

  EXPECT_EQ(pipe_metrics->queries_completed, base_metrics->queries_completed);
  EXPECT_EQ(pipe_metrics->total_matches, base_metrics->total_matches);
  EXPECT_GT(storage::SumOverArms(pipe_metrics->volumes).prefetch_issued, 0u);
  EXPECT_GT(storage::SumOverArms(pipe_metrics->volumes).prefetch_claims, 0u);
  EXPECT_GT(pipe_metrics->prefetch_hidden_ms, 0.0);
  EXPECT_LT(pipe_metrics->makespan_ms, base_metrics->makespan_ms);
}

// The engine checks the inherited stack knobs before it builds anything,
// instead of silently clamping or ignoring them, in Run and Serve alike.
TEST_F(PipelineDrainFixture, EngineRejectsInvalidPipelineConfig) {
  std::vector<std::pair<std::string, std::function<void(sim::EngineConfig*)>>>
      bad = {
          {"prefetch_depth = 0",
           [](sim::EngineConfig* c) {
             c->enable_prefetch = true;
             c->prefetch_depth = 0;
           }},
          {"cache_capacity = 0",
           [](sim::EngineConfig* c) { c->cache_capacity = 0; }},
          {"hybrid.index_threshold = -1",
           [](sim::EngineConfig* c) { c->hybrid.index_threshold = -1.0; }},
      };
  sim::ServeConfig serve;
  serve.arrivals.kind = sim::ArrivalSpec::Kind::kTrace;
  serve.arrivals.trace = arrivals_;
  for (const auto& [name, apply] : bad) {
    SCOPED_TRACE(name);
    sim::EngineConfig config;
    apply(&config);
    sim::SimEngine engine(catalog_.get(), LifeRaftSched(), config);
    auto run = engine.Run(trace_, arrivals_);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    auto served = engine.Serve(trace_, serve);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
  }
}

// Identical config -> identical run: the cache and the prefetch pipeline
// are deterministic, so two depth-2 drains agree on every virtual
// quantity.
TEST_F(PipelineDrainFixture, PrefetchDrainIsDeterministic) {
  sim::EngineConfig config;
  config.collect_matches = true;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  std::map<query::QueryId, uint64_t> a_matches;
  std::map<query::QueryId, uint64_t> b_matches;
  sim::RunMetrics a = Drain(config, &a_matches);
  sim::RunMetrics b = Drain(config, &b_matches);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.prefetch_hidden_ms, b.prefetch_hidden_ms);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a_matches, b_matches);
}

// Depth 2 keeps two bets in flight, so on a saturated drain it must hide
// at least as much fetch latency as the single-bet PR 2 pipeline.
TEST_F(PipelineDrainFixture, DepthTwoHidesAtLeastDepthOne) {
  sim::EngineConfig config;
  config.enable_prefetch = true;
  config.prefetch_depth = 1;
  sim::RunMetrics d1 = Drain(config, nullptr);
  config.prefetch_depth = 2;
  sim::RunMetrics d2 = Drain(config, nullptr);
  EXPECT_GT(d1.prefetch_hidden_ms, 0.0);
  EXPECT_GE(d2.prefetch_hidden_ms, d1.prefetch_hidden_ms);
  EXPECT_LE(d2.makespan_ms, d1.makespan_ms);
}

// A bet names a bucket with pending work, and the bucket keeps that work
// until it is picked, which claims the bet. So a completed drain claims
// every bet it placed, on every arm, at every depth, in both I/O modes.
TEST_F(PipelineDrainFixture, EveryBetOfACompletedDrainIsClaimed) {
  for (sim::IoMode io : {sim::IoMode::kModeled, sim::IoMode::kReal}) {
    for (size_t volumes : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t depth = 1; depth <= 4; ++depth) {
        SCOPED_TRACE(std::string(io == sim::IoMode::kReal ? "real" : "modeled") +
                     " volumes=" + std::to_string(volumes) +
                     " depth=" + std::to_string(depth));
        sim::EngineConfig config;
        config.io_mode = io;
        config.enable_prefetch = true;
        config.prefetch_depth = depth;
        config.topology.num_volumes = volumes;
        sim::RunMetrics m = Drain(config, nullptr);
        EXPECT_EQ(m.queries_completed, trace_.size());
        ASSERT_EQ(m.volumes.size(), volumes);
        EXPECT_GT(storage::SumOverArms(m.volumes).prefetch_issued, 0u);
        for (size_t v = 0; v < volumes; ++v) {
          EXPECT_EQ(m.volumes[v].prefetch_issued, m.volumes[v].prefetch_claims)
              << "arm " << v;
        }
      }
    }
  }
}

// A modeled bet is arm-clock bookkeeping: its page is read, and the store
// billed for it, only by the step that claims it. Every other step's
// store reads are its own foreground scan misses.
TEST_F(PipelineDrainFixture, BetIsBilledOnlyWhenClaimed) {
  core::LifeRaftOptions options;
  options.objects_per_bucket = 1000;
  options.enable_prefetch = true;
  options.prefetch_depth = 2;
  auto raft = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(raft.ok());
  for (const auto& q : trace_) ASSERT_TRUE((*raft)->Submit(q).ok());
  const storage::BucketStore& store = *(*raft)->catalog().store();

  // Cold cache: the first step places bets and claims none.
  auto first = (*raft)->ProcessNextBatch(/*collect_matches=*/false);
  ASSERT_TRUE(first.ok() && first->has_value());
  storage::VolumeIoStats arm = (*raft)->volume_stats()[0];
  ASSERT_GT(arm.prefetch_issued, 0u);
  EXPECT_EQ(arm.prefetch_claims, 0u);
  EXPECT_EQ(store.stats().bucket_reads, arm.foreground_reads)
      << "placed bets must not be billed";

  for (bool claimed = false; !claimed;) {
    const uint64_t reads = store.stats().bucket_reads;
    const storage::VolumeIoStats before = (*raft)->volume_stats()[0];
    auto step = (*raft)->ProcessNextBatch(/*collect_matches=*/false);
    ASSERT_TRUE(step.ok() && step->has_value()) << "no step claimed a bet";
    arm = (*raft)->volume_stats()[0];
    claimed = arm.prefetch_claims > before.prefetch_claims;
    if (claimed) {
      EXPECT_EQ(arm.prefetch_claims, before.prefetch_claims + 1);
      EXPECT_EQ(store.stats().bucket_reads, reads + 1)
          << "the claim reads its bet's page exactly once";
    } else {
      EXPECT_EQ(store.stats().bucket_reads - reads,
                arm.foreground_reads - before.foreground_reads);
    }
  }
}

// The core facade routes ProcessNextBatch through the same pipeline, so
// enabling prefetch there now works: same completions and matches, fetch
// latency hidden, a faster virtual drain.
TEST_F(PipelineDrainFixture, CoreFacadePrefetchHidesFetchLatency) {
  core::LifeRaftOptions options;
  options.objects_per_bucket = 1000;
  auto plain = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(plain.ok());

  options.enable_prefetch = true;
  options.prefetch_depth = 2;
  auto pipelined = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(pipelined.ok());

  for (const auto& q : trace_) {
    ASSERT_TRUE((*plain)->Submit(q).ok());
    ASSERT_TRUE((*pipelined)->Submit(q).ok());
  }

  uint64_t plain_matches = 0;
  uint64_t pipelined_matches = 0;
  auto count_plain = [&](const core::BatchOutcome& b) {
    plain_matches += b.matches.size();
  };
  auto count_pipelined = [&](const core::BatchOutcome& b) {
    pipelined_matches += b.matches.size();
  };
  auto plain_done = (*plain)->Drain(count_plain);
  ASSERT_TRUE(plain_done.ok());
  auto pipelined_done = (*pipelined)->Drain(count_pipelined);
  ASSERT_TRUE(pipelined_done.ok());

  // Same queries served, same join output; the schedule (and with it the
  // completion order) may differ — that is the prefetch steering.
  ASSERT_EQ(plain_done->size(), pipelined_done->size());
  std::set<query::QueryId> plain_ids;
  std::set<query::QueryId> pipelined_ids;
  for (const auto& c : *plain_done) plain_ids.insert(c.id);
  for (const auto& c : *pipelined_done) pipelined_ids.insert(c.id);
  EXPECT_EQ(plain_ids, pipelined_ids);
  EXPECT_EQ(plain_matches, pipelined_matches);

  EXPECT_GT((*pipelined)->prefetch_hidden_ms(), 0.0);
  const storage::VolumeIoStats bets =
      storage::SumOverArms((*pipelined)->volume_stats());
  EXPECT_GT(bets.prefetch_claims, 0u);
  EXPECT_LT((*pipelined)->now_ms(), (*plain)->now_ms())
      << "hidden fetch latency must shrink the virtual drain";
  // Every bet's bucket kept its pending work until it was picked: the
  // drain claimed every bet it placed.
  EXPECT_EQ(bets.prefetch_issued, bets.prefetch_claims);
}

// Both drivers assemble the same execution stack, so a core-facade drain
// and an engine Run with every arrival at 0 agree bit for bit: the same
// virtual clock, the same completion order and times, the same matches.
// Each configuration adds one feature to the one before it.
TEST_F(PipelineDrainFixture, CoreFacadeDrainEqualsEngineRun) {
  sim::EngineConfig config;
  config.collect_matches = true;
  std::vector<std::pair<std::string, std::function<void()>>> steps = {
      {"plain", [] {}},
      {"depth 2",
       [&] {
         config.enable_prefetch = true;
         config.prefetch_depth = 2;
       }},
      {"2 volumes", [&] { config.topology.num_volumes = 2; }},
      {"depth 4", [&] { config.prefetch_depth = 4; }},
  };
  for (const auto& [name, apply] : steps) {
    SCOPED_TRACE(name);
    apply();
    std::map<query::QueryId, uint64_t> engine_matches;
    sim::SimEngine engine(catalog_.get(), LifeRaftSched(), config);
    auto run = engine.Run(trace_, arrivals_);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (const sim::QueryOutcome& o : engine.outcomes()) {
      engine_matches[o.id] = o.matches;
    }

    core::LifeRaftOptions options;
    options.objects_per_bucket = 1000;
    options.alpha = 0.25;
    static_cast<exec::StackConfig&>(options) = config;
    auto system = core::LifeRaft::Create(catalog_objects_, options);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    for (const auto& q : trace_) ASSERT_TRUE((*system)->Submit(q).ok());
    std::map<query::QueryId, uint64_t> core_matches;
    auto drained = (*system)->Drain([&](const core::BatchOutcome& b) {
      for (const query::Match& m : b.matches) ++core_matches[m.query_id];
    });
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();

    EXPECT_EQ((*system)->now_ms(), run->makespan_ms);
    ASSERT_EQ(drained->size(), engine.outcomes().size());
    for (size_t i = 0; i < drained->size(); ++i) {
      const core::QueryCompletion& c = (*drained)[i];
      const sim::QueryOutcome& o = engine.outcomes()[i];
      EXPECT_EQ(c.id, o.id) << "completion " << i;
      EXPECT_EQ(c.arrival_ms, o.arrival_ms) << "completion " << i;
      EXPECT_EQ(c.completion_ms, o.completion_ms) << "completion " << i;
      EXPECT_EQ(core_matches[c.id], engine_matches[c.id]) << "query " << c.id;
    }
  }
}

}  // namespace
}  // namespace liferaft::exec
