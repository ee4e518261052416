// Tests for exec::BatchPipeline, the unified pick→prefetch→claim→
// evaluate→account loop shared by core::LifeRaft and sim::SimEngine's
// shared mode. The key contracts:
//  * join results (per-query match counts) are invariant across the whole
//    feature matrix — prefetch depths, adaptive depth —
//    because scheduling only reorders work, never changes matching;
//  * depth-K prefetching hides at least as much fetch latency as the
//    depth-1 (PR 2) pipeline on a saturated drain;
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

#include "exec/prefetch_controller.h"

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
  config = PipelineConfig{};
  config.max_prefetch_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.adaptive_prefetch = true;
  config.prefetch_depth = config.max_prefetch_depth + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.adaptive_prefetch = false;  // the ceiling binds adaptive mode only
  EXPECT_TRUE(config.Validate().ok());
}

// ------------------------------------------------- adaptive controller --

PrefetchControllerConfig ScriptedConfig() {
  PrefetchControllerConfig config;
  config.max_depth = 3;
  config.initial_depth = 2;
  config.adjust_period = 1;  // react every step so the script stays short
  config.probe_period = 4;
  return config;
}

// The scripted mispredict sequence of the issue: bursts drive the depth
// to zero, quiet steps trigger a probe, clean hidden-latency claims grow
// it back to the ceiling.
TEST(PrefetchControllerTest, ScriptedMispredictsShrinkThenRegrow) {
  PrefetchControllerConfig config = ScriptedConfig();
  ASSERT_TRUE(config.Validate().ok());
  PrefetchController controller(config);
  EXPECT_EQ(controller.depth(), 2u);

  // Mispredict burst: every resolved bet fell out of the window.
  PrefetchFeedback burst;
  burst.cancels = 2;
  controller.Observe(burst);
  EXPECT_EQ(controller.depth(), 1u) << "burst shrinks immediately";
  controller.Observe(burst);
  EXPECT_EQ(controller.depth(), 0u) << "second burst turns prefetch off";
  EXPECT_EQ(controller.stats().shrinks, 2u);

  // Off: nothing resolves; the probe timer alone can re-enable.
  PrefetchFeedback idle;
  for (int i = 0; i < 3; ++i) {
    controller.Observe(idle);
    EXPECT_EQ(controller.depth(), 0u);
  }
  controller.Observe(idle);
  EXPECT_EQ(controller.depth(), 1u) << "probe after probe_period quiet steps";
  EXPECT_EQ(controller.stats().probes, 1u);

  // Recovered predictor: clean claims that hide latency grow to the max.
  PrefetchFeedback good;
  good.claims = 1;
  good.hidden_ms = 500.0;
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 2u);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u) << "capped at max_depth";
  EXPECT_GE(controller.stats().grows, 2u);
}

// A claim whose residual was capped at the full fetch reused bytes but
// hid nothing — it must count as stale, and an all-stale step is a burst.
TEST(PrefetchControllerTest, CappedClaimsCountAsStale) {
  PrefetchController controller(ScriptedConfig());
  PrefetchFeedback capped;
  capped.claims = 2;
  capped.stale_claims = 2;
  capped.hidden_ms = 0.0;
  controller.Observe(capped);
  EXPECT_EQ(controller.depth(), 1u);
  EXPECT_DOUBLE_EQ(controller.stale_ewma(), 1.0);
}

// Depth never grows while hidden-ms per claim is zero, even with a clean
// stale rate: a bet that hides nothing is not worth deepening.
TEST(PrefetchControllerTest, NoGrowthWithoutHiddenLatency) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  PrefetchController controller(config);
  PrefetchFeedback clean_but_useless;
  clean_but_useless.claims = 1;
  clean_but_useless.hidden_ms = 0.0;       // capped would also set stale;
  clean_but_useless.stale_claims = 0;      // pretend a zero-cost fetch
  for (int i = 0; i < 5; ++i) controller.Observe(clean_but_useless);
  EXPECT_EQ(controller.depth(), 1u);
  EXPECT_EQ(controller.stats().grows, 0u);
}

// The wasted-bytes cost term: a clean stale rate with steady hidden
// latency normally climbs to max_depth, but sustained canceled-after-
// fetch bytes veto every grow decision until the waste EWMA decays.
TEST(PrefetchControllerTest, SustainedWasteStallsGrowth) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  config.grow_max_wasted_bytes = 1 << 20;
  PrefetchController controller(config);

  // Clean claims that hide latency, but every step also drops a fetched
  // 4 MB bucket: rate-wise growable, cost-wise not.
  PrefetchFeedback wasteful;
  wasteful.claims = 8;  // keep the stale fraction (cancels/9) under grow
  wasteful.cancels = 1;
  wasteful.hidden_ms = 500.0;
  wasteful.wasted_bytes = 4 << 20;
  for (int i = 0; i < 6; ++i) controller.Observe(wasteful);
  EXPECT_EQ(controller.depth(), 1u) << "growth must stall under waste";
  EXPECT_EQ(controller.stats().grows, 0u);
  EXPECT_GT(controller.stats().grows_vetoed_on_waste, 0u);
  EXPECT_GT(controller.wasted_bytes_ewma(),
            static_cast<double>(config.grow_max_wasted_bytes));

  // Waste stops: the EWMA decays below the gate and growth resumes.
  PrefetchFeedback clean = wasteful;
  clean.cancels = 0;
  clean.wasted_bytes = 0;
  for (int i = 0; i < 12 && controller.depth() < config.max_depth; ++i) {
    controller.Observe(clean);
  }
  EXPECT_EQ(controller.depth(), config.max_depth);
  EXPECT_GT(controller.stats().grows, 0u);
}

// Zero waste must leave the grow rule exactly as it was before the cost
// term existed (the veto can only ever bite on non-zero waste).
TEST(PrefetchControllerTest, ZeroWasteNeverVetoesGrowth) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  PrefetchController controller(config);
  PrefetchFeedback good;
  good.claims = 1;
  good.hidden_ms = 500.0;
  controller.Observe(good);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u);
  EXPECT_EQ(controller.stats().grows_vetoed_on_waste, 0u);
}

TEST(PrefetchControllerTest, ConfigValidation) {
  PrefetchControllerConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.ewma_alpha = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.grow_threshold = 0.6;  // above shrink_threshold
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.adjust_period = 0;
  EXPECT_FALSE(config.Validate().ok());
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
TEST_F(PipelineDrainFixture, ResultsInvariantAcrossShardsAndDepth) {
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
          {"num_threads = 0",
           [](sim::EngineConfig* c) { c->num_threads = 0; }},
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
TEST_F(PipelineDrainFixture, ShardedPrefetchDrainIsDeterministic) {
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

// ------------------------------------------------- adaptive drains --

// Join results must be invariant under the adaptive controller, like
// every other scheduling feature, and the prefetch ledger must reconcile
// (each issued bet is eventually claimed or canceled).
TEST_F(PipelineDrainFixture, AdaptiveResultsInvariantAndLedgerReconciles) {
  sim::EngineConfig base_config;
  base_config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  sim::RunMetrics base = Drain(base_config, &base_matches);

  sim::EngineConfig config = base_config;
  config.adaptive_prefetch = true;
  config.prefetch_depth = 2;  // the controller's starting depth
  config.max_prefetch_depth = 4;
  std::map<query::QueryId, uint64_t> matches;
  sim::RunMetrics metrics = Drain(config, &matches);
  EXPECT_EQ(metrics.queries_completed, base.queries_completed);
  EXPECT_EQ(metrics.total_matches, base.total_matches);
  EXPECT_EQ(matches, base_matches)
      << "per-query match counts must not depend on adaptive prefetch";
  EXPECT_GT(metrics.prefetch_hidden_ms, 0.0);
  EXPECT_LT(metrics.makespan_ms, base.makespan_ms);
  const storage::VolumeIoStats bets = storage::SumOverArms(metrics.volumes);
  EXPECT_EQ(bets.prefetch_issued, bets.prefetch_claims + bets.prefetch_drops);
  ASSERT_EQ(metrics.arm_final_depths.size(), 1u);
  EXPECT_LE(metrics.arm_final_depths[0], config.max_prefetch_depth);
}

// Same config, same trajectory: the controller sees only virtual-clock
// quantities, so adaptive runs are deterministic.
TEST_F(PipelineDrainFixture, AdaptiveDrainIsDeterministic) {
  sim::EngineConfig config;
  config.adaptive_prefetch = true;
  config.prefetch_depth = 2;
  config.max_prefetch_depth = 4;
  sim::RunMetrics a = Drain(config, nullptr);
  sim::RunMetrics b = Drain(config, nullptr);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.prefetch_hidden_ms, b.prefetch_hidden_ms);
  EXPECT_EQ(a.arm_final_depths, b.arm_final_depths);
  EXPECT_EQ(a.prefetch_stale_ewma, b.prefetch_stale_ewma);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(storage::SumOverArms(a.volumes).prefetch_wasted_bytes,
            storage::SumOverArms(b.volumes).prefetch_wasted_bytes);
}

// With the LifeRaft predictor healthy on a saturated drain, the adaptive
// controller must hide at least as much fetch latency as the fixed
// depth-2 pipeline it starts from (it can only deepen from there).
TEST_F(PipelineDrainFixture, AdaptiveHidesAtLeastFixedDepthTwo) {
  sim::EngineConfig fixed;
  fixed.enable_prefetch = true;
  fixed.prefetch_depth = 2;
  sim::RunMetrics d2 = Drain(fixed, nullptr);

  sim::EngineConfig adaptive;
  adaptive.adaptive_prefetch = true;
  adaptive.prefetch_depth = 2;
  adaptive.max_prefetch_depth = 4;
  sim::RunMetrics ad = Drain(adaptive, nullptr);
  EXPECT_GE(ad.prefetch_hidden_ms, d2.prefetch_hidden_ms);
  EXPECT_LE(ad.makespan_ms, d2.makespan_ms);
}

// Decorator that sabotages the prediction hook: it peeks one slot deeper
// and drops the true next pick, so the window's first element is wrong
// whenever more than one bucket has pending work. PickBucket is honest —
// only the predictor misleads the prefetcher.
class MispredictingScheduler : public sched::Scheduler {
 public:
  explicit MispredictingScheduler(std::unique_ptr<sched::Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override {
    return "mispredict(" + inner_->name() + ")";
  }
  std::optional<storage::BucketIndex> PickBucket(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached) override {
    return inner_->PickBucket(manager, now, cached);
  }
  std::vector<storage::BucketIndex> PeekNextBuckets(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached, size_t k) const override {
    std::vector<storage::BucketIndex> real =
        inner_->PeekNextBuckets(manager, now, cached, k + 1);
    if (real.size() > 1) real.erase(real.begin());
    if (real.size() > k) real.resize(k);
    return real;
  }

 private:
  std::unique_ptr<sched::Scheduler> inner_;
};

// Under injected mispredictions the adaptive controller must never end a
// drain slower than the fixed depth-1 pipeline handed the same bad
// predictor, whose pinned bets accrue hidden-ms by luck while its schedule
// pays for the pins: the controller shuts a hopeless predictor off
// (depth 0) instead of feeding it.
TEST_F(PipelineDrainFixture, AdaptiveNeverUnderperformsDepthOneOnMispredicts) {
  sim::EngineConfig fixed;
  fixed.enable_prefetch = true;
  fixed.prefetch_depth = 1;
  sim::RunMetrics d1_hold = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), fixed,
      nullptr);

  sim::EngineConfig adaptive;
  adaptive.adaptive_prefetch = true;
  adaptive.prefetch_depth = 1;
  adaptive.max_prefetch_depth = 4;
  sim::RunMetrics ad = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), adaptive,
      nullptr);
  EXPECT_LE(ad.makespan_ms, d1_hold.makespan_ms);
  // The bad predictor's cost is visible to the report: dropped bets whose
  // bytes were fetched for nothing, and a saturated stale EWMA.
  const storage::VolumeIoStats bets = storage::SumOverArms(ad.volumes);
  EXPECT_GT(bets.prefetch_wasted_bytes, 0u);
  EXPECT_EQ(bets.prefetch_issued, bets.prefetch_claims + bets.prefetch_drops);
}

// A dropped bet is charged to its own arm as waste. Under the
// mispredicting predictor the adaptive pipeline drops bets on every arm,
// and each arm's ledger reconciles: every issued bet was claimed or
// dropped.
TEST_F(PipelineDrainFixture, DroppedBetsAreChargedAsWastePerArm) {
  sim::EngineConfig adaptive;
  adaptive.adaptive_prefetch = true;
  adaptive.prefetch_depth = 1;
  adaptive.max_prefetch_depth = 4;
  adaptive.topology.num_volumes = 2;
  sim::RunMetrics m = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), adaptive,
      nullptr);
  ASSERT_EQ(m.volumes.size(), 2u);
  for (size_t v = 0; v < m.volumes.size(); ++v) {
    SCOPED_TRACE("arm " + std::to_string(v));
    const storage::VolumeIoStats& arm = m.volumes[v];
    EXPECT_GT(arm.prefetch_drops, 0u);
    EXPECT_GT(arm.prefetch_wasted_bytes, 0u);
    EXPECT_EQ(arm.prefetch_issued, arm.prefetch_claims + arm.prefetch_drops);
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
  // The drain canceled any leftover bets: the ledger reconciles.
  EXPECT_EQ(bets.prefetch_issued, bets.prefetch_claims + bets.prefetch_drops);
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
      {"3 threads", [&] { config.num_threads = 3; }},
      {"adaptive", [&] { config.adaptive_prefetch = true; }},
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
