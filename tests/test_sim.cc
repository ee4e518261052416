// Tests for the simulation layer: arrival processes and the discrete-event
// engine's semantics in all three execution modes, including the headline
// qualitative results (shared batching beats NoShare; IndexOnly is far
// slower; greedy outruns age-ordered on skewed workloads).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sched/liferaft_scheduler.h"
#include "sched/round_robin.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::sim {
namespace {

// -------------------------------------------------------------- Arrivals --

TEST(ArrivalsTest, PoissonMeanRate) {
  Rng rng(431);
  auto arrivals = *PoissonArrivals(5000, 0.5, &rng);
  ASSERT_EQ(arrivals.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // 5000 arrivals at 0.5 q/s should span ~10,000 s.
  EXPECT_NEAR(arrivals.back() / 1000.0, 10'000.0, 600.0);
}

TEST(ArrivalsTest, UniformSpacing) {
  auto arrivals = *UniformArrivals(10, 2.0);  // every 500 ms
  ASSERT_EQ(arrivals.size(), 10u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_DOUBLE_EQ(arrivals[i] - arrivals[i - 1], 500.0);
  }
}

TEST(ArrivalsTest, ImmediateAllZero) {
  auto arrivals = ImmediateArrivals(5);
  for (TimeMs t : arrivals) EXPECT_EQ(t, 0.0);
}

TEST(ArrivalsTest, BurstyIsBurstier) {
  // Coefficient of variation of inter-arrivals: bursty >> Poisson (~1).
  Rng rng1(433), rng2(433);
  auto poisson = *PoissonArrivals(4000, 0.5, &rng1);
  auto bursty = *BurstyArrivals(4000, 2.0, 0.0, 60'000.0, &rng2);
  auto cov = [](const std::vector<TimeMs>& a) {
    StreamingStats s;
    for (size_t i = 1; i < a.size(); ++i) s.Add(a[i] - a[i - 1]);
    return s.coefficient_of_variation();
  };
  EXPECT_NEAR(cov(poisson), 1.0, 0.15);
  EXPECT_GT(cov(bursty), 1.5);
}

TEST(ArrivalsTest, GeneratorsRejectInvalidParameters) {
  // Regression: these were NDEBUG-erased asserts, so Release builds
  // accepted rate 0 / NaN and generated inf timestamps. Now they are
  // InvalidArgument on every build type.
  Rng rng(439);
  EXPECT_FALSE(PoissonArrivals(10, 0.0, &rng).ok());
  EXPECT_FALSE(PoissonArrivals(10, -1.0, &rng).ok());
  EXPECT_FALSE(PoissonArrivals(10, std::nan(""), &rng).ok());
  EXPECT_FALSE(PoissonArrivals(10, 1.0, nullptr).ok());
  EXPECT_FALSE(UniformArrivals(10, 0.0).ok());
  EXPECT_FALSE(UniformArrivals(10, std::nan("")).ok());
  EXPECT_FALSE(BurstyArrivals(10, 0.0, 0.0, 1000.0, &rng).ok());
  EXPECT_FALSE(BurstyArrivals(10, 1.0, -0.5, 1000.0, &rng).ok());
  EXPECT_FALSE(BurstyArrivals(10, 1.0, 0.0, 0.0, &rng).ok());
  EXPECT_FALSE(BurstyArrivals(10, 1.0, 0.0, 1000.0, nullptr).ok());
  auto status = PoissonArrivals(10, 0.0, &rng).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ArrivalsTest, ZeroQueriesYieldEmptyOkVectors) {
  Rng rng(441);
  auto p = PoissonArrivals(0, 0.5, &rng);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->empty());
  auto u = UniformArrivals(0, 0.5);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->empty());
  auto b = BurstyArrivals(0, 0.5, 0.0, 1000.0, &rng);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
}

TEST(ArrivalsTest, BurstyZeroOffRateKeepsAlternating) {
  // rate_off = 0 means truly silent OFF phases: the generator must jump
  // them (not spin or stall) and keep emitting ON bursts separated by
  // phase-scale gaps.
  Rng rng(443);
  const TimeMs phase_ms = 1'000.0;
  auto arrivals = *BurstyArrivals(2'000, 100.0, 0.0, phase_ms, &rng);
  ASSERT_EQ(arrivals.size(), 2'000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // ON-phase inter-arrivals are ~10 ms; silent phases insert gaps on the
  // order of the 1 s mean phase length. Over ~20 s of trace there must be
  // several of them.
  size_t phase_gaps = 0;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] - arrivals[i - 1] > phase_ms / 4.0) ++phase_gaps;
  }
  EXPECT_GE(phase_gaps, 3u);
}

TEST(ArrivalsTest, DiurnalPeakBeatsTrough) {
  // The sinusoid puts the peak rate in the first half of each period and
  // the trough in the second (sin > 0 on [0, period/2)). Binning arrivals
  // by half-period must show the swing: with amplitude 0.9 the peak half
  // carries rate ~1.57x base and the trough half ~0.43x on average.
  Rng rng(445);
  const TimeMs period_ms = 100'000.0;
  auto arrivals = *DiurnalArrivals(6'000, 1.0, 0.9, period_ms, &rng);
  ASSERT_EQ(arrivals.size(), 6'000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  size_t peak = 0, trough = 0;
  for (TimeMs t : arrivals) {
    double phase = std::fmod(t, period_ms) / period_ms;
    (phase < 0.5 ? peak : trough) += 1;
  }
  EXPECT_GT(static_cast<double>(peak), 2.0 * static_cast<double>(trough));
}

TEST(ArrivalsTest, DiurnalZeroAmplitudeMatchesPoissonRate) {
  // amplitude 0 degenerates to a homogeneous Poisson process (thinning
  // accepts everything): same mean rate as PoissonArrivals even though
  // the draw sequences differ.
  Rng rng(447);
  auto arrivals = *DiurnalArrivals(5'000, 0.5, 0.0, 3'600'000.0, &rng);
  EXPECT_NEAR(arrivals.back() / 1000.0, 10'000.0, 600.0);
}

TEST(ArrivalsTest, FlashCrowdSpikesThenDecays) {
  // Windows of one decay constant each: before the spike the rate is the
  // 0.2 q/s base; in the first window after spike_start it approaches
  // base * spike_factor; a few constants later it is back near base.
  Rng rng(449);
  const double base = 0.2, factor = 10.0;
  const TimeMs start_ms = 200'000.0, decay_ms = 100'000.0;
  auto arrivals = *FlashCrowdArrivals(2'000, base, factor, start_ms,
                                      decay_ms, &rng);
  ASSERT_EQ(arrivals.size(), 2'000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  auto rate_in = [&](TimeMs from, TimeMs to) {
    size_t n = 0;
    for (TimeMs t : arrivals) n += t >= from && t < to;
    return static_cast<double>(n) / ((to - from) / 1000.0);
  };
  double before = rate_in(0.0, start_ms);
  double spike = rate_in(start_ms, start_ms + decay_ms);
  double after = rate_in(start_ms + 5.0 * decay_ms,
                         start_ms + 10.0 * decay_ms);
  EXPECT_NEAR(before, base, 0.1);
  EXPECT_GT(spike, 3.0 * base);   // mean over the window ~0.63 * peak
  EXPECT_LT(after, 2.0 * base);   // decayed back toward base
  EXPECT_GT(spike, 2.0 * after);
}

TEST(ArrivalsTest, NonHomogeneousGeneratorsAreSeedDeterministic) {
  Rng a1(451), a2(451), b(452);
  EXPECT_EQ(*DiurnalArrivals(500, 1.0, 0.5, 60'000.0, &a1),
            *DiurnalArrivals(500, 1.0, 0.5, 60'000.0, &a2));
  EXPECT_NE(*DiurnalArrivals(500, 1.0, 0.5, 60'000.0, &b),
            *DiurnalArrivals(500, 1.0, 0.5, 60'000.0, &a1));
  Rng c1(453), c2(453);
  EXPECT_EQ(*FlashCrowdArrivals(500, 0.5, 8.0, 60'000.0, 120'000.0, &c1),
            *FlashCrowdArrivals(500, 0.5, 8.0, 60'000.0, 120'000.0, &c2));
}

TEST(ArrivalsTest, NonHomogeneousGeneratorsRejectInvalidParameters) {
  Rng rng(455);
  EXPECT_FALSE(DiurnalArrivals(10, 0.0, 0.5, 60'000.0, &rng).ok());
  EXPECT_FALSE(DiurnalArrivals(10, 1.0, -0.1, 60'000.0, &rng).ok());
  EXPECT_FALSE(DiurnalArrivals(10, 1.0, 1.5, 60'000.0, &rng).ok());
  EXPECT_FALSE(DiurnalArrivals(10, 1.0, 0.5, 0.0, &rng).ok());
  EXPECT_FALSE(DiurnalArrivals(10, 1.0, 0.5, 60'000.0, nullptr).ok());
  EXPECT_FALSE(
      FlashCrowdArrivals(10, 0.0, 8.0, 60'000.0, 120'000.0, &rng).ok());
  EXPECT_FALSE(
      FlashCrowdArrivals(10, 1.0, 0.5, 60'000.0, 120'000.0, &rng).ok());
  EXPECT_FALSE(
      FlashCrowdArrivals(10, 1.0, 8.0, -1.0, 120'000.0, &rng).ok());
  EXPECT_FALSE(FlashCrowdArrivals(10, 1.0, 8.0, 60'000.0, 0.0, &rng).ok());
  EXPECT_FALSE(
      FlashCrowdArrivals(10, 1.0, 8.0, 60'000.0, 120'000.0, nullptr).ok());
}

// ---------------------------------------------------------------- Engine --

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 50'000;
    gen.seed = 21;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;  // 50 buckets
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc;
    tc.num_queries = 60;
    tc.max_objects_per_query = 1500;
    // Wide match radius so the sparse 50k-object test catalog yields real
    // matches (50k objects over the full sky is ~1 per sq deg).
    tc.match_radius_arcsec = 900.0;
    tc.seed = 23;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
  }

  std::unique_ptr<sched::Scheduler> LifeRaftSched(double alpha) {
    sched::LifeRaftConfig config;
    config.alpha = alpha;
    return std::make_unique<sched::LifeRaftScheduler>(
        catalog_->store(), storage::DiskModel{}, config);
  }

  RunMetrics MustRun(SimEngine* engine,
                     const std::vector<TimeMs>& arrivals) {
    auto metrics = engine->Run(trace_, arrivals);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return *metrics;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
};

TEST_F(EngineFixture, SharedRunCompletesEveryQuery) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.0), config);
  auto metrics = MustRun(&engine, ImmediateArrivals(trace_.size()));
  EXPECT_EQ(metrics.queries_completed, trace_.size());
  EXPECT_EQ(engine.outcomes().size(), trace_.size());
  EXPECT_GT(metrics.makespan_ms, 0.0);
  EXPECT_GT(metrics.throughput_qps, 0.0);
  for (const QueryOutcome& o : engine.outcomes()) {
    EXPECT_GE(o.completion_ms, o.arrival_ms);
    EXPECT_GE(o.parts, 1u);
  }
}

TEST_F(EngineFixture, ResponsesRespectArrivalTimes) {
  EngineConfig config;
  Rng rng(437);
  auto arrivals = *PoissonArrivals(trace_.size(), 0.2, &rng);
  SimEngine engine(catalog_.get(), LifeRaftSched(0.5), config);
  auto metrics = MustRun(&engine, arrivals);
  EXPECT_EQ(metrics.queries_completed, trace_.size());
  for (const QueryOutcome& o : engine.outcomes()) {
    EXPECT_GT(o.ResponseMs(), 0.0);
  }
  // Makespan can't be shorter than the last arrival.
  EXPECT_GE(metrics.makespan_ms, arrivals.back());
}

TEST_F(EngineFixture, RejectsMalformedInput) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.0), config);
  // Size mismatch.
  EXPECT_FALSE(engine.Run(trace_, ImmediateArrivals(3)).ok());
  // Unsorted arrivals.
  std::vector<TimeMs> bad(trace_.size(), 0.0);
  bad.back() = -5.0;
  EXPECT_FALSE(engine.Run(trace_, bad).ok());
  // Empty trace.
  EXPECT_FALSE(engine.Run({}, {}).ok());
  // Shared mode without scheduler.
  SimEngine no_sched(catalog_.get(), nullptr, config);
  EXPECT_FALSE(no_sched.Run(trace_, ImmediateArrivals(trace_.size())).ok());
}

TEST_F(EngineFixture, SharedBeatsNoShareOnThroughput) {
  // The paper's headline: batch processing with I/O sharing vs NoShare is
  // a >= 2x throughput win on a skewed workload.
  EngineConfig shared_config;
  SimEngine shared(catalog_.get(), LifeRaftSched(0.0), shared_config);
  auto shared_metrics = MustRun(&shared, ImmediateArrivals(trace_.size()));

  EngineConfig noshare_config;
  noshare_config.mode = ExecutionMode::kNoShare;
  SimEngine noshare(catalog_.get(), nullptr, noshare_config);
  auto noshare_metrics = MustRun(&noshare, ImmediateArrivals(trace_.size()));

  EXPECT_GT(shared_metrics.throughput_qps,
            noshare_metrics.throughput_qps * 1.5)
      << "shared: " << shared_metrics.Summary()
      << "\nnoshare: " << noshare_metrics.Summary();
  // NoShare performs strictly more bucket reads.
  EXPECT_GT(noshare_metrics.store.bucket_reads,
            shared_metrics.store.bucket_reads);
}

TEST_F(EngineFixture, IndexOnlyIsFarSlower) {
  // Paper §5: index-exclusive evaluation is ~7x slower than even NoShare.
  EngineConfig noshare_config;
  noshare_config.mode = ExecutionMode::kNoShare;
  SimEngine noshare(catalog_.get(), nullptr, noshare_config);
  auto noshare_metrics = MustRun(&noshare, ImmediateArrivals(trace_.size()));

  EngineConfig index_config;
  index_config.mode = ExecutionMode::kIndexOnly;
  SimEngine indexonly(catalog_.get(), nullptr, index_config);
  auto index_metrics = MustRun(&indexonly, ImmediateArrivals(trace_.size()));

  EXPECT_GT(noshare_metrics.throughput_qps,
            index_metrics.throughput_qps * 2.0);
}

TEST_F(EngineFixture, MatchesIdenticalAcrossModes) {
  // Scheduling must not change join results: total matches are equal in
  // every mode and for every scheduler.
  EngineConfig c1;
  SimEngine e1(catalog_.get(), LifeRaftSched(0.0), c1);
  auto m1 = MustRun(&e1, ImmediateArrivals(trace_.size()));

  EngineConfig c2;
  SimEngine e2(catalog_.get(), std::make_unique<sched::RoundRobinScheduler>(),
               c2);
  auto m2 = MustRun(&e2, ImmediateArrivals(trace_.size()));

  EngineConfig c3;
  c3.mode = ExecutionMode::kNoShare;
  SimEngine e3(catalog_.get(), nullptr, c3);
  auto m3 = MustRun(&e3, ImmediateArrivals(trace_.size()));

  EngineConfig c4;
  c4.mode = ExecutionMode::kIndexOnly;
  SimEngine e4(catalog_.get(), nullptr, c4);
  auto m4 = MustRun(&e4, ImmediateArrivals(trace_.size()));

  EXPECT_EQ(m1.total_matches, m2.total_matches);
  EXPECT_EQ(m1.total_matches, m3.total_matches);
  EXPECT_EQ(m1.total_matches, m4.total_matches);
  EXPECT_GT(m1.total_matches, 0u);
}

TEST_F(EngineFixture, GreedySchedulerGetsMoreCacheHits) {
  // §6 discussion: the contention-based scheduler serves far more requests
  // from cache than the age-based one.
  EngineConfig config;
  Rng rng(443);
  auto arrivals = *PoissonArrivals(trace_.size(), 0.5, &rng);

  SimEngine greedy(catalog_.get(), LifeRaftSched(0.0), config);
  auto greedy_metrics = MustRun(&greedy, arrivals);
  SimEngine aged(catalog_.get(), LifeRaftSched(1.0), config);
  auto aged_metrics = MustRun(&aged, arrivals);

  EXPECT_GT(greedy_metrics.cache.HitRate(), aged_metrics.cache.HitRate());
}

TEST_F(EngineFixture, ReusableForMultipleRuns) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.25), config);
  auto m1 = MustRun(&engine, ImmediateArrivals(trace_.size()));
  auto m2 = MustRun(&engine, ImmediateArrivals(trace_.size()));
  // Deterministic replay: identical results both times.
  EXPECT_DOUBLE_EQ(m1.makespan_ms, m2.makespan_ms);
  EXPECT_EQ(m1.total_matches, m2.total_matches);
  EXPECT_EQ(m1.store.bucket_reads, m2.store.bucket_reads);
}

TEST_F(EngineFixture, HybridJoinEngagesForSparseQueues) {
  // At low saturation with an age-biased scheduler, small queues should
  // sometimes take the indexed path (Fig 8b's mechanism).
  EngineConfig config;
  Rng rng(461);
  auto arrivals = *PoissonArrivals(trace_.size(), 0.05, &rng);
  SimEngine engine(catalog_.get(), LifeRaftSched(1.0), config);
  auto metrics = MustRun(&engine, arrivals);
  EXPECT_GT(metrics.evaluator.indexed_batches, 0u)
      << "expected some indexed joins for sparse queues";
  EXPECT_GT(metrics.evaluator.scan_batches, 0u);
}

// ---------------------------------------------------------------- QoS mix --

// Paper §6's QoS extension in the shape of examples/interactive_mix.cpp:
// every 5th query of a long-running sky-spanning trace is swapped for a
// 6-object query inside a 0.05-degree cap. At alpha = 1 the scheduler is
// age-ordered, so without depreciation the small queries wait behind the
// batch queries' age; depreciating each query's age by its pending parts
// must cut the interactive mean response by at least a quarter. No
// scenario-grid cell moves with sched::QosConfig, so this test is what
// keeps it.
class QosMixTest : public ::testing::Test {
 protected:
  static storage::DiskModelParams ScaledDisk() {
    storage::DiskModelParams p;
    p.seek_ms = 6.0;
    p.transfer_mb_per_s = 3.35;
    p.match_ms_per_object = 1.3;
    p.index_probe_ms = 41.0;
    return p;
  }

  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 100'000;
    gen.seed = 17;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc = workload::LongRunningSkyQueryPreset();
    tc.num_queries = 200;
    tc.seed = 23;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
    Rng rng(24);
    for (size_t i = 0; i < trace_.size(); i += 5) {
      query::CrossMatchQuery& q = trace_[i];
      q.objects.clear();
      const SkyPoint center = workload::RandomSkyPoint(&rng);
      for (int j = 0; j < 6; ++j) {
        q.objects.push_back(query::MakeQueryObject(
            j, workload::RandomPointInCap(&rng, center, 0.05), 3.0));
      }
      q.label = "interactive";
    }
  }

  // Mean response of the interactive queries over one Poisson run at
  // 2 q/s, with or without age depreciation.
  double InteractiveMeanMs(bool depreciate) {
    sched::LifeRaftConfig lr;
    lr.alpha = 1.0;
    lr.qos.depreciate_long_queries = depreciate;
    lr.qos.half_life_parts = 4.0;
    EngineConfig config;
    config.disk = ScaledDisk();
    SimEngine engine(catalog_.get(),
                     std::make_unique<sched::LifeRaftScheduler>(
                         catalog_->store(), storage::DiskModel(ScaledDisk()),
                         lr),
                     config);
    Rng rng(11);
    auto arrivals = PoissonArrivals(trace_.size(), 2.0, &rng);
    EXPECT_TRUE(arrivals.ok());
    auto metrics = engine.Run(trace_, *arrivals);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    StreamingStats interactive;
    for (const QueryOutcome& o : engine.outcomes()) {
      if (trace_[o.id - 1].label == "interactive") {
        interactive.Add(o.ResponseMs());
      }
    }
    EXPECT_EQ(interactive.count(), 40u);
    return interactive.mean();
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
};

TEST_F(QosMixTest, DepreciationCutsInteractiveMeanResponse) {
  const double off = InteractiveMeanMs(false);
  const double on = InteractiveMeanMs(true);
  EXPECT_LE(on, 0.75 * off) << "interactive mean " << on
                            << " ms with depreciation, " << off
                            << " ms without";
}

}  // namespace
}  // namespace liferaft::sim
