// Tests for the scheduling layer: the U_t / U_a metric math, the LifeRaft
// scheduler's greedy and age-biased behaviours, cache-awareness (phi), the
// round-robin and least-sharable baselines, QoS age depreciation, and
// Fig. 4's offline alpha selection (SelectAlpha).

#include <gtest/gtest.h>

#include <cmath>

#include "query/workload.h"
#include "sched/least_sharable.h"
#include "sched/liferaft_scheduler.h"
#include "sched/metric.h"
#include "sched/qos.h"
#include "sched/round_robin.h"
#include "storage/catalog.h"
#include "storage/topology.h"
#include "util/random.h"
#include "workload/catalog_gen.h"

namespace liferaft::sched {
namespace {

using query::WorkloadManager;
using storage::BucketIndex;

// ---------------------------------------------------------------- Metric --

TEST(MetricTest, UtMatchesPaperFormula) {
  storage::DiskModel model;
  // |W| / (T_b + T_m |W|) for an uncached bucket.
  uint64_t bucket_bytes = 40ull * 1024 * 1024;
  double tb = model.SequentialReadMs(bucket_bytes);
  double ut = WorkloadThroughput(model, 200, bucket_bytes, false);
  EXPECT_NEAR(ut, 200.0 / (tb + 200 * 0.13), 1e-12);
}

TEST(MetricTest, CachedBucketDropsTbTerm) {
  storage::DiskModel model;
  uint64_t bytes = 40ull * 1024 * 1024;
  double cached = WorkloadThroughput(model, 100, bytes, true);
  double uncached = WorkloadThroughput(model, 100, bytes, false);
  EXPECT_NEAR(cached, 100.0 / (100 * 0.13), 1e-12);
  EXPECT_GT(cached, uncached * 10.0);
}

TEST(MetricTest, UtMonotoneInQueueLength) {
  storage::DiskModel model;
  uint64_t bytes = 4096ull * 1000;
  double prev = 0.0;
  for (uint64_t w : {1, 10, 100, 1000, 10000}) {
    double ut = WorkloadThroughput(model, w, bytes, false);
    EXPECT_GT(ut, prev);
    prev = ut;
  }
  // And saturates at 1/T_m as |W| -> infinity.
  EXPECT_LT(prev, 1.0 / 0.13);
}

TEST(MetricTest, ZeroQueueHasZeroThroughput) {
  storage::DiskModel model;
  EXPECT_EQ(WorkloadThroughput(model, 0, 4096, false), 0.0);
}

TEST(MetricTest, RawBlendEndpoints) {
  EXPECT_DOUBLE_EQ(AgedThroughputRaw(5.0, 9000.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(AgedThroughputRaw(5.0, 9000.0, 1.0), 9000.0);
  EXPECT_DOUBLE_EQ(AgedThroughputRaw(4.0, 100.0, 0.5), 52.0);
}

TEST(MetricTest, RawBlendIsAgeDominatedForRealisticUnits) {
  // The unit mismatch documented in DESIGN.md: with U_t ~ 0.1 obj/ms and
  // ages in minutes, even alpha = 0.05 is dominated by the age term.
  double ut_hot = 7.7, ut_cold = 0.08;   // cached vs uncached queue
  double age_hot = 100.0, age_cold = 60'000.0;
  double hot = AgedThroughputRaw(ut_hot, age_hot, 0.05);
  double cold = AgedThroughputRaw(ut_cold, age_cold, 0.05);
  EXPECT_GT(cold, hot) << "age term should dominate despite tiny alpha";
}

TEST(MetricTest, NormalizedBlendKeepsAlphaMeaningful) {
  // Same scenario, normalized: at alpha=0.05 contention still wins.
  double ut_hot = 7.7, ut_cold = 0.08;
  double age_hot = 100.0, age_cold = 60'000.0;
  double hot =
      AgedThroughputNormalized(ut_hot, ut_hot, age_hot, age_cold, 0.05);
  double cold =
      AgedThroughputNormalized(ut_cold, ut_hot, age_cold, age_cold, 0.05);
  EXPECT_GT(hot, cold);
  // And at alpha=0.95 age wins.
  hot = AgedThroughputNormalized(ut_hot, ut_hot, age_hot, age_cold, 0.95);
  cold = AgedThroughputNormalized(ut_cold, ut_hot, age_cold, age_cold, 0.95);
  EXPECT_GT(cold, hot);
}

TEST(MetricTest, NormalizedHandlesZeroMaxima) {
  EXPECT_EQ(AgedThroughputNormalized(0.0, 0.0, 0.0, 0.0, 0.5), 0.0);
}

// ------------------------------------------------- Scheduler test fixture --

// A catalog plus a manager with hand-placed workloads so tests control
// exactly which buckets hold how much work of what age.
class SchedulerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 10'000;
    gen.seed = 31;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    storage::CatalogOptions options;
    options.objects_per_bucket = 500;  // 20 buckets
    options.build_index = false;
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);
    manager_ = std::make_unique<WorkloadManager>(catalog_->num_buckets());
  }

  // Admits a query with `n_objects` objects targeted at bucket `b`,
  // arriving at `arrival`.
  void Place(query::QueryId id, BucketIndex b, size_t n_objects,
             TimeMs arrival) {
    query::CrossMatchQuery q;
    q.id = id;
    q.arrival_ms = arrival;
    query::BucketWorkload w;
    w.bucket = b;
    htm::IdRange range = catalog_->bucket_map().RangeOf(b);
    for (size_t i = 0; i < n_objects; ++i) {
      query::QueryObject qo;
      qo.id = i;
      qo.htm_ranges.Add(range.lo, range.lo);  // inside the bucket
      w.objects.push_back(qo);
    }
    auto admitted = manager_->Admit(q, {w});
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  }

  LifeRaftScheduler MakeScheduler(double alpha,
                                  MetricNormalization norm =
                                      MetricNormalization::kNormalized) {
    LifeRaftConfig config;
    config.alpha = alpha;
    config.normalization = norm;
    return LifeRaftScheduler(catalog_->store(), storage::DiskModel{},
                             config);
  }

  static CacheProbe NothingCached() {
    return [](BucketIndex) { return false; };
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<WorkloadManager> manager_;
};

// -------------------------------------------------------------- LifeRaft --

TEST_F(SchedulerFixture, EmptyManagerYieldsNothing) {
  auto sched = MakeScheduler(0.0);
  EXPECT_FALSE(
      sched.PickBucket(*manager_, 0.0, NothingCached()).has_value());
}

TEST_F(SchedulerFixture, GreedyPicksMostContentiousBucket) {
  Place(1, 3, 50, 0.0);
  Place(2, 7, 400, 0.0);  // most pending objects
  Place(3, 11, 120, 0.0);
  auto sched = MakeScheduler(0.0);
  auto pick = sched.PickBucket(*manager_, 1000.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 7u);
}

TEST_F(SchedulerFixture, GreedyPrefersCachedBucket) {
  Place(1, 3, 200, 0.0);
  Place(2, 7, 300, 0.0);  // bigger queue but cold
  auto sched = MakeScheduler(0.0);
  CacheProbe cached = [](BucketIndex b) { return b == 3; };
  auto pick = sched.PickBucket(*manager_, 1000.0, cached);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3u) << "phi=0 should beat a moderately longer queue";
}

TEST_F(SchedulerFixture, AgeOnePicksOldestRequest) {
  Place(1, 3, 400, 5000.0);
  Place(2, 7, 50, 100.0);  // tiny queue but oldest
  Place(3, 11, 400, 3000.0);
  auto sched = MakeScheduler(1.0);
  auto pick = sched.PickBucket(*manager_, 10'000.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 7u);
}

TEST_F(SchedulerFixture, IntermediateAlphaInterpolates) {
  // Bucket A: hot (large queue), young. Bucket B: cold, old.
  Place(1, 2, 500, 9900.0);   // arrives late
  Place(2, 9, 20, 0.0);       // ancient but tiny
  auto greedy = MakeScheduler(0.0);
  auto aged = MakeScheduler(1.0);
  auto mid = MakeScheduler(0.5);
  TimeMs now = 10'000.0;
  EXPECT_EQ(*greedy.PickBucket(*manager_, now, NothingCached()), 2u);
  EXPECT_EQ(*aged.PickBucket(*manager_, now, NothingCached()), 9u);
  // Mid alpha: with normalized terms, B's age share (1.0) beats A's
  // throughput share advantage -> schedules the starving bucket.
  auto pick = mid.PickBucket(*manager_, now, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 9u);
}

TEST_F(SchedulerFixture, RawPaperModeCollapsesOntoAge) {
  // With the literal Eq. 2 blend, even alpha = 0.05 behaves like alpha = 1
  // once ages reach seconds (the unit-mismatch ablation).
  Place(1, 2, 500, 9000.0);
  Place(2, 9, 20, 0.0);
  auto raw = MakeScheduler(0.05, MetricNormalization::kRawPaper);
  auto norm = MakeScheduler(0.05, MetricNormalization::kNormalized);
  TimeMs now = 10'000.0;
  EXPECT_EQ(*raw.PickBucket(*manager_, now, NothingCached()), 9u)
      << "raw metric should be age-dominated";
  EXPECT_EQ(*norm.PickBucket(*manager_, now, NothingCached()), 2u)
      << "normalized metric should keep contention dominant at low alpha";
}

TEST_F(SchedulerFixture, NameEncodesAlpha) {
  EXPECT_EQ(MakeScheduler(0.25).name(), "liferaft(a=0.25)");
}

TEST_F(SchedulerFixture, SetAlphaTakesEffect) {
  Place(1, 2, 500, 9000.0);
  Place(2, 9, 20, 0.0);
  auto sched = MakeScheduler(0.0);
  TimeMs now = 10'000.0;
  EXPECT_EQ(*sched.PickBucket(*manager_, now, NothingCached()), 2u);
  sched.set_alpha(1.0);
  EXPECT_EQ(*sched.PickBucket(*manager_, now, NothingCached()), 9u);
}

// ------------------------------------------------ PeekNextBuckets depth --

TEST_F(SchedulerFixture, LifeRaftPeekHeadMatchesPick) {
  Place(1, 3, 50, 0.0);
  Place(2, 7, 400, 0.0);
  Place(3, 11, 120, 0.0);
  auto sched = MakeScheduler(0.25);
  for (size_t k = 1; k <= 4; ++k) {
    auto peek = sched.PeekNextBuckets(*manager_, 1000.0, NothingCached(), k);
    ASSERT_FALSE(peek.empty());
    EXPECT_EQ(peek.front(),
              *sched.PickBucket(*manager_, 1000.0, NothingCached()))
        << "element 0 must be exactly the pick at k=" << k;
  }
}

TEST_F(SchedulerFixture, LifeRaftPeekDepthKPredictsServiceOrder) {
  // Greedy (alpha=0) ranks purely by contention, so the predicted order is
  // descending queue size; serving each prediction then re-picking must
  // reproduce the same sequence.
  Place(1, 3, 50, 0.0);
  Place(2, 7, 400, 0.0);
  Place(3, 11, 120, 0.0);
  auto sched = MakeScheduler(0.0);
  auto peek = sched.PeekNextBuckets(*manager_, 1000.0, NothingCached(), 5);
  ASSERT_EQ(peek.size(), 3u) << "depth caps at the active bucket count";
  EXPECT_EQ(peek[0], 7u);
  EXPECT_EQ(peek[1], 11u);
  EXPECT_EQ(peek[2], 3u);
  // Replay: every prediction comes true when the queues drain in turn.
  for (storage::BucketIndex predicted : peek) {
    auto pick = sched.PickBucket(*manager_, 1000.0, NothingCached());
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, predicted);
    manager_->TakeBucket(*pick, nullptr);
  }
}

TEST_F(SchedulerFixture, LifeRaftPeekElementsAreDistinct) {
  for (BucketIndex b = 0; b < 8; ++b) {
    Place(100 + b, b, 10 * (b + 1), static_cast<TimeMs>(b) * 50.0);
  }
  auto sched = MakeScheduler(0.5);
  auto peek = sched.PeekNextBuckets(*manager_, 5000.0, NothingCached(), 8);
  ASSERT_EQ(peek.size(), 8u);
  std::set<BucketIndex> distinct(peek.begin(), peek.end());
  EXPECT_EQ(distinct.size(), peek.size());
}

TEST_F(SchedulerFixture, RoundRobinPeekDepthKFollowsSweep) {
  Place(1, 5, 10, 0.0);
  Place(2, 12, 10, 0.0);
  Place(3, 2, 10, 0.0);
  RoundRobinScheduler rr;
  auto peek = rr.PeekNextBuckets(*manager_, 0.0, NothingCached(), 3);
  ASSERT_EQ(peek.size(), 3u);
  EXPECT_EQ(peek[0], 2u);
  EXPECT_EQ(peek[1], 5u);
  EXPECT_EQ(peek[2], 12u);
  // Depth beyond the active set stops after one full lap.
  EXPECT_EQ(rr.PeekNextBuckets(*manager_, 0.0, NothingCached(), 9).size(),
            3u);
  // After serving one bucket the sweep advances; the preview follows the
  // cursor and wraps.
  auto p1 = rr.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(p1.has_value());
  manager_->TakeBucket(*p1, nullptr);
  peek = rr.PeekNextBuckets(*manager_, 0.0, NothingCached(), 2);
  ASSERT_EQ(peek.size(), 2u);
  EXPECT_EQ(peek[0], 5u);
  EXPECT_EQ(peek[1], 12u);
}

TEST_F(SchedulerFixture, LeastSharablePeekDepthKOrdersBySize) {
  Place(1, 3, 50, 0.0);
  Place(2, 7, 400, 0.0);
  Place(3, 11, 5, 0.0);
  Place(4, 13, 5, 0.0);  // same size as 11: tie breaks to lower index
  LeastSharableScheduler ls;
  auto peek = ls.PeekNextBuckets(*manager_, 0.0, NothingCached(), 4);
  ASSERT_EQ(peek.size(), 4u);
  EXPECT_EQ(peek[0], 11u);
  EXPECT_EQ(peek[1], 13u);
  EXPECT_EQ(peek[2], 3u);
  EXPECT_EQ(peek[3], 7u);
  EXPECT_EQ(peek.front(), *ls.PickBucket(*manager_, 0.0, NothingCached()));
}

TEST_F(SchedulerFixture, PeekOnEmptyManagerIsEmpty) {
  auto sched = MakeScheduler(0.25);
  RoundRobinScheduler rr;
  LeastSharableScheduler ls;
  EXPECT_TRUE(
      sched.PeekNextBuckets(*manager_, 0.0, NothingCached(), 3).empty());
  EXPECT_TRUE(rr.PeekNextBuckets(*manager_, 0.0, NothingCached(), 3).empty());
  EXPECT_TRUE(ls.PeekNextBuckets(*manager_, 0.0, NothingCached(), 3).empty());
}

// ------------------------------------------------------------------- QoS --

TEST(QosTest, WeightShape) {
  QosConfig off;
  EXPECT_EQ(QosAgeWeight(off, 1000), 1.0);
  QosConfig on;
  on.depreciate_long_queries = true;
  on.half_life_parts = 16.0;
  EXPECT_NEAR(QosAgeWeight(on, 0), 1.0, 1e-12);
  EXPECT_NEAR(QosAgeWeight(on, 16), 0.5, 1e-12);
  EXPECT_LT(QosAgeWeight(on, 160), 0.1);
}

TEST_F(SchedulerFixture, QosDepreciatesLongQueryAge) {
  // Two buckets with equally old entries; the long query's bucket loses
  // its age priority under QoS.
  // Long query: parts spread over many buckets (simulate by admitting a
  // multi-bucket workload).
  query::CrossMatchQuery long_q;
  long_q.id = 1;
  long_q.arrival_ms = 0.0;
  std::vector<query::BucketWorkload> long_workloads;
  for (BucketIndex b = 0; b < 10; ++b) {
    query::BucketWorkload w;
    w.bucket = b;
    query::QueryObject qo;
    qo.id = b;
    qo.htm_ranges.Add(catalog_->bucket_map().RangeOf(b).lo,
                      catalog_->bucket_map().RangeOf(b).lo);
    w.objects.push_back(qo);
    long_workloads.push_back(w);
  }
  ASSERT_TRUE(manager_->Admit(long_q, long_workloads).ok());
  Place(2, 15, 1, 0.0);  // short query, single part, same age

  LifeRaftConfig config;
  config.alpha = 1.0;  // pure age scheduling
  config.qos.depreciate_long_queries = true;
  config.qos.half_life_parts = 2.0;
  LifeRaftScheduler qos_sched(catalog_->store(), storage::DiskModel{},
                              config);
  auto pick = qos_sched.PickBucket(*manager_, 60'000.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 15u) << "short query should outrank the 10-part query";

  // Without QoS the tie resolves to the lowest bucket of the long query.
  auto plain = MakeScheduler(1.0);
  auto plain_pick = plain.PickBucket(*manager_, 60'000.0, NothingCached());
  ASSERT_TRUE(plain_pick.has_value());
  EXPECT_EQ(*plain_pick, 0u);
}

// ------------------------------------------------------------ RoundRobin --

TEST_F(SchedulerFixture, RoundRobinSweepsInBucketOrder) {
  Place(1, 5, 10, 0.0);
  Place(2, 12, 10, 0.0);
  Place(3, 2, 10, 0.0);
  RoundRobinScheduler rr;
  auto p1 = rr.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(*p1, 2u);
  manager_->TakeBucket(*p1, nullptr);
  auto p2 = rr.PickBucket(*manager_, 0.0, NothingCached());
  EXPECT_EQ(*p2, 5u);
  manager_->TakeBucket(*p2, nullptr);
  auto p3 = rr.PickBucket(*manager_, 0.0, NothingCached());
  EXPECT_EQ(*p3, 12u);
  manager_->TakeBucket(*p3, nullptr);
  EXPECT_FALSE(rr.PickBucket(*manager_, 0.0, NothingCached()).has_value());
}

TEST_F(SchedulerFixture, RoundRobinWrapsAround) {
  Place(1, 5, 10, 0.0);
  RoundRobinScheduler rr;
  auto p1 = rr.PickBucket(*manager_, 0.0, NothingCached());
  EXPECT_EQ(*p1, 5u);
  manager_->TakeBucket(*p1, nullptr);
  // New work arrives at a lower bucket; cursor is past it, so the sweep
  // wraps.
  Place(2, 1, 10, 0.0);
  auto p2 = rr.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p2, 1u);
}

// --------------------------------------------------------- LeastSharable --

TEST_F(SchedulerFixture, LeastSharablePicksSmallestQueue) {
  Place(1, 3, 50, 0.0);
  Place(2, 7, 400, 0.0);
  Place(3, 11, 5, 0.0);
  LeastSharableScheduler ls;
  auto pick = ls.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 11u);
}

// ---------------------------------------------------------- SelectAlpha --

std::vector<TradeoffPoint> PaperLikeCurve() {
  // Shaped like Fig 4's high-saturation curve: throughput falls and
  // response improves as alpha rises.
  return {
      {0.00, 0.40, 300'000.0},
      {0.25, 0.33, 240'000.0},
      {0.50, 0.28, 220'000.0},
      {0.75, 0.24, 210'000.0},
      {1.00, 0.20, 200'000.0},
  };
}

TEST(SelectAlphaTest, ZeroToleranceKeepsMaxThroughput) {
  auto alpha = SelectAlpha(PaperLikeCurve(), 0.0);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.0);
}

TEST(SelectAlphaTest, TwentyPercentToleranceMatchesFig4) {
  // 20% tolerance admits throughput >= 0.32: alpha 0.25 qualifies and has
  // the best response among qualifiers.
  auto alpha = SelectAlpha(PaperLikeCurve(), 0.2);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.25);
}

TEST(SelectAlphaTest, FullToleranceMinimizesResponse) {
  auto alpha = SelectAlpha(PaperLikeCurve(), 1.0);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 1.0);
}

TEST(SelectAlphaTest, RejectsBadInput) {
  EXPECT_FALSE(SelectAlpha({}, 0.2).ok());
  EXPECT_FALSE(SelectAlpha(PaperLikeCurve(), -0.1).ok());
  EXPECT_FALSE(SelectAlpha(PaperLikeCurve(), 1.5).ok());
}

// ------------------------------------------------------------------ QoS --

TEST(QosTest, HalfLifeIsHonoredAcrossScales) {
  QosConfig on;
  on.depreciate_long_queries = true;
  for (double half_life : {1.0, 8.0, 64.0, 1000.0}) {
    on.half_life_parts = half_life;
    EXPECT_NEAR(QosAgeWeight(on, static_cast<size_t>(half_life)), 0.5,
                1e-12);
  }
  // Weight decreases strictly with query size and stays positive.
  on.half_life_parts = 16.0;
  double prev = QosAgeWeight(on, 0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (size_t parts : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    double w = QosAgeWeight(on, parts);
    EXPECT_LT(w, prev);
    EXPECT_GT(w, 0.0);
    prev = w;
  }
}

// ------------------------------------------- SelectAlpha edge behaviour --

TEST(SelectAlphaTest, TiedThroughputPicksBestResponse) {
  // Zero tolerance with a flat throughput curve: every point qualifies,
  // so the response-time minimizer wins.
  std::vector<TradeoffPoint> flat = {
      {0.00, 0.30, 200'000.0},
      {0.50, 0.30, 100'000.0},
      {1.00, 0.30, 150'000.0},
  };
  auto alpha = SelectAlpha(flat, 0.0);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.5);
}

TEST(SelectAlphaTest, SinglePointCurveReturnsIt) {
  auto alpha = SelectAlpha({{0.25, 0.4, 100'000.0}}, 0.5);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.25);
}

// ---------------------------------------------- per-volume T_b pricing --

TEST(MetricTest, PerVolumeTbUsesOwningVolumesModel) {
  storage::DiskModelParams fast;  // defaults
  storage::DiskModelParams slow = fast;
  slow.transfer_mb_per_s = 0.1;  // T_b ~335x the default
  storage::DiskModel fallback(fast);

  storage::StorageTopologyConfig uniform_config;
  uniform_config.num_volumes = 2;
  auto uniform_topo =
      storage::StorageTopology::Create(20, uniform_config, fast);
  ASSERT_TRUE(uniform_topo.ok());

  storage::StorageTopologyConfig hetero_config;
  hetero_config.num_volumes = 2;
  hetero_config.volume_disk = {fast, slow};
  auto hetero_topo =
      storage::StorageTopology::Create(20, hetero_config, fast);
  ASSERT_TRUE(hetero_topo.ok());
  ASSERT_FALSE(hetero_topo->uniform());

  const uint64_t queue = 200, bytes = 4 << 20;
  const double baseline = WorkloadThroughput(fallback, queue, bytes, false);
  // Null and uniform topologies price with the fallback model, bit for
  // bit (the byte-identity contract for single-volume runs).
  EXPECT_EQ(WorkloadThroughputOnVolume(nullptr, fallback, 3, queue, bytes,
                                       false),
            baseline);
  EXPECT_EQ(WorkloadThroughputOnVolume(&*uniform_topo, fallback, 3, queue,
                                       bytes, false),
            baseline);
  // Heterogeneous: bucket 3 lives on fast volume 0 (range placement),
  // bucket 13 on slow volume 1 — the slow arm's T_b depresses U_t.
  ASSERT_EQ(hetero_topo->VolumeOf(3), 0u);
  ASSERT_EQ(hetero_topo->VolumeOf(13), 1u);
  EXPECT_EQ(WorkloadThroughputOnVolume(&*hetero_topo, fallback, 3, queue,
                                       bytes, false),
            baseline);
  EXPECT_LT(WorkloadThroughputOnVolume(&*hetero_topo, fallback, 13, queue,
                                       bytes, false),
            baseline);
  // Cached buckets drop the T_b term entirely, so placement is moot.
  EXPECT_EQ(WorkloadThroughputOnVolume(&*hetero_topo, fallback, 13, queue,
                                       bytes, true),
            WorkloadThroughput(fallback, queue, bytes, true));
}

TEST_F(SchedulerFixture, RankingPricesTbByVolume) {
  // Regression for the dormant-bug: RankBest priced every bucket with the
  // scheduler's own (global) disk model, so a bucket on a slow arm with a
  // slightly larger queue outranked a fast-arm bucket under alpha = 0.
  // With the topology attached, the slow arm's T_b wins the comparison
  // for the fast bucket.
  storage::DiskModelParams fast;
  storage::DiskModelParams slow = fast;
  slow.transfer_mb_per_s = 0.1;
  storage::StorageTopologyConfig hetero_config;
  hetero_config.num_volumes = 2;
  hetero_config.volume_disk = {fast, slow};
  auto topo = storage::StorageTopology::Create(catalog_->num_buckets(),
                                               hetero_config, fast);
  ASSERT_TRUE(topo.ok());

  // Fast-arm bucket 2 holds 100 objects, slow-arm bucket 12 holds 120:
  // uniform pricing prefers 12 (U_t is monotone in queue length), volume-
  // aware pricing prefers 2.
  Place(1, 2, 100, 0.0);
  Place(2, 12, 120, 0.0);

  auto uniform_sched = MakeScheduler(0.0);
  auto pick = uniform_sched.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 12u);  // the pre-fix ranking, still right without a topo

  auto volume_aware = MakeScheduler(0.0);
  volume_aware.AttachTopology(&*topo);
  pick = volume_aware.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);

  // A uniform topology attached must not change any decision.
  storage::StorageTopologyConfig uniform_config;
  uniform_config.num_volumes = 2;
  auto uniform_topo = storage::StorageTopology::Create(
      catalog_->num_buckets(), uniform_config, fast);
  ASSERT_TRUE(uniform_topo.ok());
  auto attached_uniform = MakeScheduler(0.0);
  attached_uniform.AttachTopology(&*uniform_topo);
  pick = attached_uniform.PickBucket(*manager_, 0.0, NothingCached());
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 12u);
}

}  // namespace
}  // namespace liferaft::sched
