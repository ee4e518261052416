// Tests for util::ThreadPool and for the determinism contract of the
// parallel kShared execution path: a pool-backed run must be
// indistinguishable — match-for-match, batch-for-batch, tick-for-tick —
// from the paper's single-threaded scheduler loop.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/liferaft.h"
#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::util {
namespace {

TEST(ThreadPoolTest, StartupShutdownIsClean) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  pool.Shutdown();  // explicit
  ThreadPool implicit(2);
  (void)implicit;  // destructor path
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ResultsIndependentOfExecutionOrder) {
  // Futures hand each task's value back to its submission slot, so the
  // caller-visible result vector is ordered however the caller indexes it,
  // not however the workers raced.
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return 7; });
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("worker failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&ran] { ++ran; });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, IdleWorkerRunsQueuedTasksWhileAnotherBlocks) {
  // One worker parks on the gate task; the 16 tasks queued behind it sit
  // in the one shared queue. They can only complete while the gate is
  // held if the other worker takes every one of them — this deadline-free
  // wait is the assertion that no task is tied to the blocked worker.
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto blocked = pool.Submit([opened] { opened.wait(); });
  std::atomic<int> ran{0};
  std::vector<std::future<void>> rest;
  for (int i = 0; i < 16; ++i) {
    rest.push_back(pool.Submit([&ran] { ++ran; }));
  }
  for (auto& f : rest) f.get();  // completes only if the idle worker runs all
  EXPECT_EQ(ran.load(), 16);
  gate.set_value();
  blocked.get();
}

TEST(ThreadPoolTest, SkewedTaskSizesAllComplete) {
  // A few huge tasks next to many tiny ones (the skewed-entry-slice shape
  // of a batch fan-out): everything runs exactly once, results keyed by
  // submission slot.
  ThreadPool pool(4);
  std::vector<std::future<uint64_t>> futures;
  for (int i = 0; i < 64; ++i) {
    const uint64_t spin = (i % 16 == 0) ? 200'000 : 100;
    futures.push_back(pool.Submit([spin] {
      uint64_t acc = 1;
      for (uint64_t k = 0; k < spin; ++k) acc = acc * 6364136223846793005ull + 1;
      return acc;
    }));
  }
  for (auto& f : futures) {
    EXPECT_NE(f.get(), 0u);
  }
}

// ------------------------------------------------- Parallel determinism --

bool SameMatch(const query::Match& a, const query::Match& b) {
  return a.query_id == b.query_id &&
         a.query_object_id == b.query_object_id &&
         a.catalog_object_id == b.catalog_object_id &&
         a.separation_arcsec == b.separation_arcsec &&
         a.ra_deg == b.ra_deg && a.dec_deg == b.dec_deg;
}

class ParallelSharedFixture : public ::testing::Test {
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
  }

  std::unique_ptr<sched::Scheduler> LifeRaftSched() {
    sched::LifeRaftConfig config;
    config.alpha = 0.25;
    return std::make_unique<sched::LifeRaftScheduler>(
        catalog_->store(), storage::DiskModel{}, config);
  }

  std::vector<storage::CatalogObject> catalog_objects_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
};

TEST_F(ParallelSharedFixture, EngineParallelMatchesSerialExactly) {
  sim::EngineConfig serial_config;
  serial_config.collect_matches = true;
  serial_config.num_threads = 1;
  sim::SimEngine serial(catalog_.get(), LifeRaftSched(), serial_config);
  Rng rng(97);
  auto arrivals = *sim::PoissonArrivals(trace_.size(), 2.0, &rng);
  auto serial_metrics = serial.Run(trace_, arrivals);
  ASSERT_TRUE(serial_metrics.ok()) << serial_metrics.status().ToString();

  sim::EngineConfig parallel_config = serial_config;
  parallel_config.num_threads = 4;
  sim::SimEngine parallel(catalog_.get(), LifeRaftSched(), parallel_config);
  auto parallel_metrics = parallel.Run(trace_, arrivals);
  ASSERT_TRUE(parallel_metrics.ok()) << parallel_metrics.status().ToString();

  // Tick-for-tick identical clocks and aggregate results.
  EXPECT_EQ(serial_metrics->makespan_ms, parallel_metrics->makespan_ms);
  EXPECT_EQ(serial_metrics->total_matches, parallel_metrics->total_matches);
  EXPECT_EQ(serial_metrics->evaluator.batches,
            parallel_metrics->evaluator.batches);
  EXPECT_EQ(serial_metrics->evaluator.scan_batches,
            parallel_metrics->evaluator.scan_batches);
  EXPECT_EQ(serial_metrics->cache.hits, parallel_metrics->cache.hits);
  EXPECT_EQ(serial_metrics->cache.misses, parallel_metrics->cache.misses);

  // Completion-order identical outcomes.
  ASSERT_EQ(serial.outcomes().size(), parallel.outcomes().size());
  for (size_t i = 0; i < serial.outcomes().size(); ++i) {
    const sim::QueryOutcome& s = serial.outcomes()[i];
    const sim::QueryOutcome& p = parallel.outcomes()[i];
    EXPECT_EQ(s.id, p.id) << "completion order diverged at " << i;
    EXPECT_EQ(s.completion_ms, p.completion_ms);
    EXPECT_EQ(s.matches, p.matches);
  }
}

void ExpectIdenticalRuns(const sim::RunMetrics& a, const sim::RunMetrics& b,
                         const sim::SimEngine& ea, const sim::SimEngine& eb) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.total_matches, b.total_matches);
  EXPECT_EQ(a.peak_pending_objects, b.peak_pending_objects);
  EXPECT_EQ(a.store.bucket_reads, b.store.bucket_reads);
  EXPECT_EQ(a.store.bytes_read, b.store.bytes_read);
  EXPECT_EQ(a.store.objects_read, b.store.objects_read);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  ASSERT_EQ(ea.outcomes().size(), eb.outcomes().size());
  for (size_t i = 0; i < ea.outcomes().size(); ++i) {
    const sim::QueryOutcome& s = ea.outcomes()[i];
    const sim::QueryOutcome& p = eb.outcomes()[i];
    EXPECT_EQ(s.id, p.id) << "completion order diverged at " << i;
    EXPECT_EQ(s.arrival_ms, p.arrival_ms);
    EXPECT_EQ(s.completion_ms, p.completion_ms);
    EXPECT_EQ(s.matches, p.matches);
  }
}

// The per-query baselines are embarrassingly parallel across queries; a
// pool-backed run must reproduce the serial FIFO accounting byte for byte:
// same virtual clock, same I/O charges, same peak workload buffering.
TEST_F(ParallelSharedFixture, EngineParallelNoShareMatchesSerialExactly) {
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kNoShare;
  config.collect_matches = true;
  Rng rng(131);
  auto arrivals = *sim::PoissonArrivals(trace_.size(), 2.0, &rng);

  sim::SimEngine serial(catalog_.get(), nullptr, config);
  auto serial_metrics = serial.Run(trace_, arrivals);
  ASSERT_TRUE(serial_metrics.ok()) << serial_metrics.status().ToString();

  config.num_threads = 4;
  sim::SimEngine parallel(catalog_.get(), nullptr, config);
  auto parallel_metrics = parallel.Run(trace_, arrivals);
  ASSERT_TRUE(parallel_metrics.ok()) << parallel_metrics.status().ToString();

  ExpectIdenticalRuns(*serial_metrics, *parallel_metrics, serial, parallel);
}

TEST_F(ParallelSharedFixture, EngineParallelIndexOnlyMatchesSerialExactly) {
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kIndexOnly;
  config.collect_matches = true;
  Rng rng(137);
  auto arrivals = *sim::PoissonArrivals(trace_.size(), 2.0, &rng);

  sim::SimEngine serial(catalog_.get(), nullptr, config);
  auto serial_metrics = serial.Run(trace_, arrivals);
  ASSERT_TRUE(serial_metrics.ok()) << serial_metrics.status().ToString();

  config.num_threads = 4;
  sim::SimEngine parallel(catalog_.get(), nullptr, config);
  auto parallel_metrics = parallel.Run(trace_, arrivals);
  ASSERT_TRUE(parallel_metrics.ok()) << parallel_metrics.status().ToString();

  ExpectIdenticalRuns(*serial_metrics, *parallel_metrics, serial, parallel);
}

// ---------------------------------------------- Cross-batch prefetching --

// Pipelining hides (part of) the next bucket's T_b behind the current
// batch's T_m matching time, so the virtual makespan must shrink while the
// join results stay exact.
TEST_F(ParallelSharedFixture, PrefetchPipelineReducesVirtualMakespan) {
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

// The pipeline's virtual-clock accounting is independent of how many
// workers share the join, so a prefetch run is byte-identical across
// thread counts.
TEST_F(ParallelSharedFixture, PrefetchRunIdenticalAcrossThreadCounts) {
  sim::EngineConfig config;
  config.collect_matches = true;
  config.enable_prefetch = true;
  Rng rng(149);
  auto arrivals = *sim::PoissonArrivals(trace_.size(), 2.0, &rng);

  sim::SimEngine sync(catalog_.get(), LifeRaftSched(), config);
  auto sync_metrics = sync.Run(trace_, arrivals);
  ASSERT_TRUE(sync_metrics.ok()) << sync_metrics.status().ToString();

  config.num_threads = 4;
  sim::SimEngine async(catalog_.get(), LifeRaftSched(), config);
  auto async_metrics = async.Run(trace_, arrivals);
  ASSERT_TRUE(async_metrics.ok()) << async_metrics.status().ToString();

  ExpectIdenticalRuns(*sync_metrics, *async_metrics, sync, async);
  EXPECT_EQ(storage::SumOverArms(sync_metrics->volumes).prefetch_issued,
            storage::SumOverArms(async_metrics->volumes).prefetch_issued);
  EXPECT_EQ(storage::SumOverArms(sync_metrics->volumes).prefetch_claims,
            storage::SumOverArms(async_metrics->volumes).prefetch_claims);
  EXPECT_EQ(sync_metrics->prefetch_hidden_ms,
            async_metrics->prefetch_hidden_ms);
}

TEST_F(ParallelSharedFixture, FacadeParallelBatchesAreByteIdentical) {
  core::LifeRaftOptions options;
  options.objects_per_bucket = 1000;
  auto serial = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(serial.ok());

  options.num_threads = 4;
  auto parallel = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(parallel.ok());

  for (const auto& q : trace_) {
    ASSERT_TRUE((*serial)->Submit(q).ok());
    ASSERT_TRUE((*parallel)->Submit(q).ok());
  }

  // Drive both systems batch by batch: every scheduled bucket, strategy,
  // modeled cost, completion set, and match list must agree.
  size_t batches = 0;
  for (;;) {
    auto s = (*serial)->ProcessNextBatch();
    auto p = (*parallel)->ProcessNextBatch();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    ASSERT_EQ(s->has_value(), p->has_value());
    if (!s->has_value()) break;
    ++batches;
    EXPECT_EQ((*s)->bucket, (*p)->bucket);
    EXPECT_EQ((*s)->strategy, (*p)->strategy);
    EXPECT_EQ((*s)->cache_hit, (*p)->cache_hit);
    EXPECT_EQ((*s)->cost_ms, (*p)->cost_ms);
    EXPECT_EQ((*s)->completed, (*p)->completed);
    ASSERT_EQ((*s)->matches.size(), (*p)->matches.size());
    for (size_t i = 0; i < (*s)->matches.size(); ++i) {
      EXPECT_TRUE(SameMatch((*s)->matches[i], (*p)->matches[i]))
          << "bucket " << (*s)->bucket << " match " << i;
    }
  }
  EXPECT_GT(batches, 0u);
  EXPECT_EQ((*serial)->now_ms(), (*parallel)->now_ms());
  ASSERT_EQ((*serial)->completions().size(),
            (*parallel)->completions().size());
  for (size_t i = 0; i < (*serial)->completions().size(); ++i) {
    EXPECT_EQ((*serial)->completions()[i].id,
              (*parallel)->completions()[i].id);
    EXPECT_EQ((*serial)->completions()[i].completion_ms,
              (*parallel)->completions()[i].completion_ms);
  }
}

}  // namespace
}  // namespace liferaft::util
