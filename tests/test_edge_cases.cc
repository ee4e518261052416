// Edge-case coverage across modules: degenerate geometry (poles, RA
// wraparound, the merge join where RA collapses), logging levels, metric
// summaries, facade corner states, and misc small behaviours not covered by
// the main suites.

#include <gtest/gtest.h>

#include "core/liferaft.h"
#include "htm/htm.h"
#include "join/merge_join.h"
#include "query/query.h"
#include "sim/arrivals.h"
#include "sim/run_metrics.h"
#include "storage/partitioner.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/catalog_gen.h"

namespace liferaft {
namespace {

// One bucket owning the whole curve, over objects sorted by HTM id.
storage::Bucket WholeCurveBucket(
    const std::vector<storage::CatalogObject>& objects) {
  auto page = storage::ColumnarPage::Encode(
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return storage::Bucket(0, std::move(*page));
}

// ------------------------------------------------------- polar geometry --

TEST(PolarEdgeTest, ObjectsExactlyAtPolesGetValidIds) {
  for (double dec : {90.0, -90.0}) {
    storage::CatalogObject o = storage::MakeObject(1, {0.0, dec});
    EXPECT_TRUE(htm::IsValidId(o.htm_id));
    EXPECT_EQ(htm::LevelOf(o.htm_id), htm::kObjectLevel);
  }
}

TEST(PolarEdgeTest, QueryObjectAtPoleHasBoundedCover) {
  query::QueryObject qo = query::MakeQueryObject(0, {123.0, 90.0}, 10.0);
  EXPECT_FALSE(qo.htm_ranges.empty());
  EXPECT_LE(qo.htm_ranges.size(), 64u);
  // The pole itself is covered.
  EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(SkyPoint{0.0, 90.0})));
}

TEST(PolarEdgeTest, MergeMatchesBruteForceNearPole) {
  // Polar bucket: where cos(dec) collapses every RA is near every other,
  // and the merge join must still find exactly the brute-force matches.
  Rng rng(1001);
  std::vector<storage::CatalogObject> objects;
  for (int i = 0; i < 2000; ++i) {
    objects.push_back(storage::MakeObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(88.5, 90.0)}));
  }
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  const storage::Bucket bucket = WholeCurveBucket(objects);
  query::WorkloadEntry entry;
  entry.query_id = 1;
  for (int i = 0; i < 50; ++i) {
    entry.objects.push_back(query::MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(89.0, 90.0)},
        120.0));
  }
  std::vector<query::Match> merge_out;
  const std::vector<query::WorkloadEntry> batch = {entry};
  join::MergeCrossMatch(bucket, batch, &merge_out);
  using Key = std::tuple<query::QueryId, uint64_t, uint64_t>;
  std::set<Key> merged, brute;
  for (const auto& m : merge_out) {
    merged.insert({m.query_id, m.query_object_id, m.catalog_object_id});
  }
  for (const auto& qo : entry.objects) {
    for (const auto& co : objects) {
      double sep = 0.0;
      if (join::WithinRadius(qo, co, &sep)) {
        brute.insert({entry.query_id, qo.id, co.object_id});
      }
    }
  }
  EXPECT_EQ(merged, brute);
  EXPECT_FALSE(merged.empty());
}

TEST(RaWrapEdgeTest, MatchesAcrossRaZero) {
  // A query object at RA ~0 must match archive objects at RA ~360.
  auto co = storage::MakeObject(7, {359.9995, 10.0});
  const storage::Bucket bucket = WholeCurveBucket({co});
  query::WorkloadEntry entry;
  entry.query_id = 1;
  entry.objects.push_back(query::MakeQueryObject(0, {0.0005, 10.0}, 10.0));
  std::vector<query::Match> merge_out;
  const std::vector<query::WorkloadEntry> batch = {entry};
  join::MergeCrossMatch(bucket, batch, &merge_out);
  EXPECT_EQ(merge_out.size(), 1u);
}

// --------------------------------------------------------------- logging --

TEST(LoggingTest, LevelsFilter) {
  LogLevel original = Logger::level();
  Logger::SetLevel(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  // Emitting below the level is a no-op (no crash, nothing observable).
  LIFERAFT_LOG_DEBUG << "suppressed " << 42;
  LIFERAFT_LOG_INFO << "suppressed";
  Logger::SetLevel(LogLevel::kOff);
  LIFERAFT_LOG_ERROR << "also suppressed";
  Logger::SetLevel(original);
}

// ----------------------------------------------------------- run metrics --

TEST(RunMetricsTest, SummaryContainsKeyNumbers) {
  sim::RunMetrics m;
  m.scheduler_name = "liferaft(a=0.25)";
  m.queries_completed = 123;
  m.throughput_qps = 0.4567;
  m.avg_response_ms = 9876.0;
  std::string s = m.Summary();
  EXPECT_NE(s.find("liferaft(a=0.25)"), std::string::npos);
  EXPECT_NE(s.find("123"), std::string::npos);
  EXPECT_NE(s.find("0.4567"), std::string::npos);
}

// ------------------------------------------------------------- arrivals --

TEST(ArrivalsEdgeTest, SingleQuerySchedules) {
  Rng rng(1009);
  EXPECT_EQ(sim::PoissonArrivals(1, 0.5, &rng)->size(), 1u);
  EXPECT_EQ(sim::UniformArrivals(1, 2.0)->size(), 1u);
  EXPECT_EQ(sim::ImmediateArrivals(0).size(), 0u);
}

TEST(ArrivalsEdgeTest, BurstyWithNonzeroOffRate) {
  Rng rng(1013);
  auto arrivals = *sim::BurstyArrivals(500, 2.0, 0.1, 10'000.0, &rng);
  EXPECT_EQ(arrivals.size(), 500u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

// ---------------------------------------------------------------- facade --

TEST(FacadeEdgeTest, DrainWithNoWorkIsEmpty) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 2000;
  gen.seed = 1019;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  core::LifeRaftOptions options;
  options.objects_per_bucket = 500;
  auto system = core::LifeRaft::Create(std::move(*objects), options);
  ASSERT_TRUE(system.ok());
  auto completions = (*system)->Drain();
  ASSERT_TRUE(completions.ok());
  EXPECT_TRUE(completions->empty());
  EXPECT_EQ((*system)->now_ms(), 0.0);
  auto batch = (*system)->ProcessNextBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->has_value());
}

TEST(FacadeEdgeTest, ArrivalStampsNeverGoBackwards) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 5000;
  gen.seed = 1021;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  core::LifeRaftOptions options;
  options.objects_per_bucket = 500;
  auto system = core::LifeRaft::Create(std::move(*objects), options);
  ASSERT_TRUE(system.ok());

  query::CrossMatchQuery q1;
  q1.id = 1;
  q1.objects.push_back(query::MakeQueryObject(0, {50, 10}, 600.0));
  ASSERT_TRUE((*system)->Submit(q1).ok());
  ASSERT_TRUE((*system)->Drain().ok());
  TimeMs now = (*system)->now_ms();
  ASSERT_GT(now, 0.0);

  // A query claiming to have arrived in the past is stamped with now.
  query::CrossMatchQuery q2;
  q2.id = 2;
  q2.arrival_ms = 0.0;
  q2.objects.push_back(query::MakeQueryObject(0, {51, 10}, 600.0));
  ASSERT_TRUE((*system)->Submit(q2).ok());
  auto completions = (*system)->Drain();
  ASSERT_TRUE(completions.ok());
  ASSERT_EQ(completions->size(), 1u);
  EXPECT_GE((*completions)[0].arrival_ms, now);
  EXPECT_GE((*completions)[0].ResponseMs(), 0.0);
}

// -------------------------------------------------------------- geometry --

TEST(GeometryEdgeTest, HugeMatchRadiusStillConservative) {
  // A 2-degree error radius (absurd for astrometry, fine for the API).
  query::QueryObject qo = query::MakeQueryObject(0, {200.0, -45.0}, 7200.0);
  Rng rng(1031);
  SkyPoint center{200.0, -45.0};
  for (int i = 0; i < 300; ++i) {
    SkyPoint p = workload::RandomPointInCap(&rng, center, 2.0);
    EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(p)));
  }
}

TEST(GeometryEdgeTest, ZeroExtentRangeSetIntersections) {
  htm::RangeSet a;
  a.Add(5, 5);  // single id
  EXPECT_TRUE(a.Contains(5));
  EXPECT_EQ(a.Count(), 1u);
  htm::RangeSet b;
  b.Add(5, 5);
  EXPECT_EQ(a.Intersect(b).Count(), 1u);
  b = htm::RangeSet();
  b.Add(6, 6);
  EXPECT_TRUE(a.Intersect(b).empty());
}

TEST(BucketMapEdgeTest, CurveEndpointsResolve) {
  Rng rng(1033);
  std::vector<storage::CatalogObject> objects;
  for (int i = 0; i < 500; ++i) {
    objects.push_back(storage::MakeObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-80, 80)}));
  }
  auto partition = storage::PartitionCatalog(std::move(objects), 100);
  ASSERT_TRUE(partition.ok());
  const storage::BucketMap& map = *partition->map;
  EXPECT_EQ(map.BucketOf(htm::LevelMin(htm::kObjectLevel)), 0u);
  EXPECT_EQ(map.BucketOf(htm::LevelMax(htm::kObjectLevel)),
            map.num_buckets() - 1);
}

}  // namespace
}  // namespace liferaft
