// Tests for the continuous-serving layer: arrival-spec validation and
// materialization, QoS classification, admission control / load shedding,
// the thread-safety contract of AdmissionController, serving-vs-closed-run
// equivalence, and the per-class / per-arm serving telemetry.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::sim {
namespace {

// ---------------------------------------------------------- ArrivalSpec --

TEST(ArrivalSpecTest, ValidatesPerKind) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kPoisson;
  spec.rate_qps = 0.0;
  EXPECT_FALSE(spec.Validate(10).ok());
  spec.rate_qps = 0.5;
  EXPECT_TRUE(spec.Validate(10).ok());

  spec.kind = ArrivalSpec::Kind::kBursty;
  spec.rate_off_qps = -1.0;
  EXPECT_FALSE(spec.Validate(10).ok());
  spec.rate_off_qps = 0.0;
  spec.mean_phase_ms = 0.0;
  EXPECT_FALSE(spec.Validate(10).ok());
  spec.mean_phase_ms = 60'000.0;
  EXPECT_TRUE(spec.Validate(10).ok());
  // Phases too short to hold an arrival: fewer than one expected arrival
  // per 100 phases is refused, not generated (the generator would step
  // through ~1e-300 ms phases without end).
  spec.rate_qps = 4.0;
  spec.mean_phase_ms = 1e-300;
  EXPECT_EQ(spec.Validate(8).code(), StatusCode::kInvalidArgument);
  spec.mean_phase_ms = 2.0;  // 0.008 arrivals per phase
  EXPECT_FALSE(spec.Validate(8).ok());
  spec.mean_phase_ms = 3.0;  // 0.012
  EXPECT_TRUE(spec.Validate(8).ok());
  spec.rate_qps = 0.001;  // the OFF rate counts too
  spec.rate_off_qps = 4.0;
  EXPECT_TRUE(spec.Validate(8).ok());

  spec.kind = ArrivalSpec::Kind::kTrace;
  spec.trace = {0.0, 1.0, 2.0};
  EXPECT_FALSE(spec.Validate(10).ok());  // size mismatch
  EXPECT_TRUE(spec.Validate(3).ok());
  spec.trace = {2.0, 1.0, 0.0};
  EXPECT_FALSE(spec.Validate(3).ok());  // descending
}

TEST(ArrivalSpecTest, BuildArrivalsIsDeterministic) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kPoisson;
  spec.rate_qps = 1.0;
  spec.seed = 77;
  auto a = BuildArrivals(spec, 100);
  auto b = BuildArrivals(spec, 100);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  ASSERT_EQ(a->size(), 100u);
  EXPECT_TRUE(std::is_sorted(a->begin(), a->end()));
}

TEST(ArrivalSpecTest, TraceKindReturnsTraceVerbatim) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kTrace;
  spec.trace = {0.0, 10.0, 2500.0};
  auto a = BuildArrivals(spec, 3);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, spec.trace);
}

// -------------------------------------------------- AdmissionController --

TEST(AdmissionControllerTest, UnboundedAdmitsEverything) {
  ServeConfig config;  // both bounds 0
  AdmissionController ac(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ac.Offer(1'000'000, 500, 10'000));
  }
  EXPECT_EQ(ac.offered(), 100u);
  EXPECT_EQ(ac.shed(), 0u);
}

TEST(AdmissionControllerTest, ShedsOverEitherBound) {
  ServeConfig config;
  config.max_pending_queries = 4;
  config.max_pending_objects = 1000;
  AdmissionController ac(config);
  EXPECT_TRUE(ac.Offer(0, 0, 100));     // plenty of room
  EXPECT_FALSE(ac.Offer(0, 4, 100));    // query-count bound
  EXPECT_FALSE(ac.Offer(950, 1, 100));  // object bound
  EXPECT_FALSE(ac.Offer(0, 0, 2000));   // single huge query
  EXPECT_TRUE(ac.Offer(900, 3, 100));   // exactly at the bound: admit
  EXPECT_EQ(ac.offered(), 5u);
  EXPECT_EQ(ac.shed(), 3u);
}

TEST(AdmissionControllerTest, ConcurrentOffersAreSafe) {
  // The concurrent admission path: many threads hammer Offer on one
  // controller while reading its counters. Run under TSan (tools/ci.sh
  // --tsan) a counter touched outside the lock fails the run.
  ServeConfig config;
  config.max_pending_queries = 8;
  AdmissionController ac(config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::atomic<uint64_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ac, &admitted] {
      // Interleavings across threads exercise the lock, and the counter
      // reads race the writes.
      for (int i = 0; i < kPerThread; ++i) {
        if (ac.Offer(100, static_cast<size_t>(i % 10), 10)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 16 == 0) (void)ac.shed();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ac.offered(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(ac.offered(), admitted.load() + ac.shed());
}

// -------------------------------------------------------------- Serving --

class ServeFixture : public ::testing::Test {
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

  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
};

TEST_F(ServeFixture, ServeSmokeCompletesEverythingUnbounded) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.5), config);
  ServeConfig serve;
  serve.arrivals.kind = ArrivalSpec::Kind::kPoisson;
  serve.arrivals.rate_qps = 0.5;
  serve.arrivals.seed = 5;
  auto metrics = engine.Serve(trace_, serve);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->queries_offered, trace_.size());
  EXPECT_EQ(metrics->queries_shed, 0u);
  EXPECT_EQ(metrics->queries_completed, trace_.size());
  EXPECT_GT(metrics->sustained_qps, 0.0);
  EXPECT_DOUBLE_EQ(metrics->sustained_qps, metrics->offered_qps);
  ASSERT_EQ(metrics->qos_classes.size(), kNumQosClasses);
  size_t completed = 0;
  for (const QosClassMetrics& qc : metrics->qos_classes) {
    completed += qc.completed;
    EXPECT_EQ(qc.shed, 0u);
    EXPECT_LE(qc.p50_response_ms, qc.p95_response_ms);
    EXPECT_LE(qc.p95_response_ms, qc.p99_response_ms);
  }
  EXPECT_EQ(completed, trace_.size());
  // Both classes occur in this trace at the default split.
  EXPECT_GT(metrics->qos_classes[0].completed, 0u);
  EXPECT_GT(metrics->qos_classes[1].completed, 0u);
}

TEST_F(ServeFixture, TraceServeReproducesClosedRunExactly) {
  // Serving a recorded trace with no shedding bounds must be the
  // closed-workload drain, bit for bit: same virtual makespan, same I/O,
  // same matches — the whole report.
  Rng rng(101);
  auto arrivals = *PoissonArrivals(trace_.size(), 0.5, &rng);

  EngineConfig config;
  SimEngine run_engine(catalog_.get(), LifeRaftSched(0.25), config);
  auto run = run_engine.Run(trace_, arrivals);
  ASSERT_TRUE(run.ok());

  SimEngine serve_engine(catalog_.get(), LifeRaftSched(0.25), config);
  ServeConfig serve;
  serve.arrivals.kind = ArrivalSpec::Kind::kTrace;
  serve.arrivals.trace = arrivals;
  auto served = serve_engine.Serve(trace_, serve);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_DOUBLE_EQ(served->makespan_ms, run->makespan_ms);
  EXPECT_EQ(served->total_matches, run->total_matches);
  EXPECT_EQ(served->store.bucket_reads, run->store.bucket_reads);
  EXPECT_EQ(served->queries_completed, run->queries_completed);
  EXPECT_DOUBLE_EQ(served->avg_response_ms, run->avg_response_ms);
  EXPECT_EQ(served->peak_pending_objects, run->peak_pending_objects);
  EXPECT_EQ(RunMetricsJson(*served), RunMetricsJson(*run));
}

TEST_F(ServeFixture, SheddingKeepsAccountsBalanced) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.0), config);
  ServeConfig serve;
  serve.arrivals.kind = ArrivalSpec::Kind::kPoisson;
  serve.arrivals.rate_qps = 50.0;  // far beyond what one arm drains
  serve.arrivals.seed = 7;
  serve.max_pending_queries = 3;
  auto metrics = engine.Serve(trace_, serve);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->queries_shed, 0u);
  EXPECT_EQ(metrics->queries_completed + metrics->queries_shed,
            metrics->queries_offered);
  EXPECT_EQ(engine.outcomes().size(), metrics->queries_completed);
  EXPECT_LT(metrics->sustained_qps, metrics->offered_qps);
  size_t shed = 0;
  for (const QosClassMetrics& qc : metrics->qos_classes) shed += qc.shed;
  EXPECT_EQ(shed, metrics->queries_shed);
}

TEST_F(ServeFixture, ObjectBoundShedsBigQueries) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.0), config);
  ServeConfig serve;
  serve.arrivals.kind = ArrivalSpec::Kind::kUniform;
  serve.arrivals.rate_qps = 20.0;
  serve.max_pending_objects = 2000;  // some trace queries alone exceed this
  auto metrics = engine.Serve(trace_, serve);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->queries_shed, 0u);
  EXPECT_GT(metrics->queries_completed, 0u);
  EXPECT_EQ(metrics->queries_completed + metrics->queries_shed,
            metrics->queries_offered);
}

TEST_F(ServeFixture, ClassifiesByFanout) {
  EngineConfig config;
  SimEngine engine(catalog_.get(), LifeRaftSched(0.5), config);
  ServeConfig serve;
  serve.arrivals.kind = ArrivalSpec::Kind::kPoisson;
  serve.arrivals.rate_qps = 0.5;
  serve.interactive_max_parts = 1;  // only single-bucket queries
  auto metrics = engine.Serve(trace_, serve);
  ASSERT_TRUE(metrics.ok());
  size_t single_part = 0;
  for (const QueryOutcome& o : engine.outcomes()) {
    if (o.parts <= 1) ++single_part;
    EXPECT_EQ(o.qos, o.parts <= 1 ? QosClass::kInteractive
                                  : QosClass::kBatch);
  }
  EXPECT_EQ(metrics->qos_classes[0].completed, single_part);
}

TEST_F(ServeFixture, RejectsBadConfigurations) {
  EngineConfig config;
  {
    // Serving is shared-mode only.
    EngineConfig per_query = config;
    per_query.mode = ExecutionMode::kNoShare;
    SimEngine engine(catalog_.get(), nullptr, per_query);
    ServeConfig serve;
    EXPECT_FALSE(engine.Serve(trace_, serve).ok());
  }
  SimEngine engine(catalog_.get(), LifeRaftSched(0.5), config);
  {
    ServeConfig serve;
    serve.arrivals.rate_qps = 0.0;
    EXPECT_FALSE(engine.Serve(trace_, serve).ok());
  }
  {
    ServeConfig serve;
    serve.arrivals.kind = ArrivalSpec::Kind::kTrace;
    serve.arrivals.trace = {0.0};  // wrong size
    EXPECT_FALSE(engine.Serve(trace_, serve).ok());
  }
  {
    ServeConfig serve;
    serve.interactive_max_parts = 0;
    EXPECT_FALSE(engine.Serve(trace_, serve).ok());
  }
  {
    ServeConfig serve;
    EXPECT_FALSE(engine.Serve({}, serve).ok());  // empty trace
  }
}

}  // namespace
}  // namespace liferaft::sim
