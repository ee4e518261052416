// Tests for the query layer: query objects and their HTM covers,
// predicates, the pre-processor's bucket decomposition, and the workload
// manager's queue/aging/completion bookkeeping.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>

#include "htm/htm.h"
#include "query/preprocessor.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/partitioner.h"
#include "util/random.h"

namespace liferaft::query {
namespace {

using storage::BucketIndex;
using storage::CatalogObject;
using storage::MakeObject;

std::vector<CatalogObject> RandomObjects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CatalogObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360),
               std::asin(rng.UniformDouble(-1, 1)) * kRadToDeg};
    objects.push_back(MakeObject(i, p));
  }
  return objects;
}

// ----------------------------------------------------------- QueryObject --

TEST(QueryObjectTest, CoverContainsOwnPosition) {
  Rng rng(223);
  for (int i = 0; i < 200; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360), rng.UniformDouble(-89, 89)};
    QueryObject qo = MakeQueryObject(i, p, 3.0);
    EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(p)));
    EXPECT_NEAR(qo.pos.Norm(), 1.0, 1e-12);
  }
}

TEST(QueryObjectTest, CoverContainsAllMatchCandidates) {
  // Any archive object within the error radius must fall in the cover —
  // this is the coarse filter's no-false-negative invariant.
  Rng rng(227);
  SkyPoint center{120.0, 30.0};
  QueryObject qo = MakeQueryObject(0, center, 10.0);
  for (int i = 0; i < 500; ++i) {
    SkyPoint p{center.ra_deg + rng.UniformDouble(-0.01, 0.01),
               center.dec_deg + rng.UniformDouble(-0.01, 0.01)};
    if (AngularSeparationArcsec(center, p) > 10.0) continue;
    EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(p)));
  }
}

TEST(QueryObjectTest, CoverIsBounded) {
  // Even near mesh-root corners, an object ships a handful of ranges.
  for (double ra : {0.0, 45.0, 90.0, 180.0, 270.0}) {
    for (double dec : {-90.0, -45.0, 0.0, 45.0, 90.0}) {
      QueryObject qo = MakeQueryObject(0, {ra, dec}, 5.0);
      EXPECT_LE(qo.htm_ranges.size(), 32u) << ra << "," << dec;
    }
  }
}

// ------------------------------------------------------------- Predicate --

TEST(PredicateTest, TrivialAcceptsEverything) {
  Predicate p;
  EXPECT_TRUE(p.IsTrivial());
  EXPECT_TRUE(p.Matches(MakeObject(1, {10, 10}, -5.0f, 99.0f)));
  EXPECT_EQ(p.ToString(), "true");
}

TEST(PredicateTest, MagnitudeBounds) {
  Predicate p;
  p.min_mag = 15.0f;
  p.max_mag = 20.0f;
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 17.0f)));
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 15.0f)));
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 20.0f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 14.9f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 20.1f)));
  EXPECT_FALSE(p.IsTrivial());
  EXPECT_NE(p.ToString().find("mag"), std::string::npos);
}

TEST(PredicateTest, ColorBounds) {
  Predicate p;
  p.min_color = 0.2f;
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 18.0f, 0.3f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 18.0f, 0.1f)));
}

// ---------------------------------------------------------- Preprocessor --

class PreprocessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto partition = storage::PartitionCatalog(RandomObjects(5000, 229), 250);
    ASSERT_TRUE(partition.ok());
    map_ = partition->map;
  }
  std::shared_ptr<const storage::BucketMap> map_;
};

TEST_F(PreprocessorTest, EveryObjectLandsSomewhere) {
  Rng rng(233);
  CrossMatchQuery q;
  q.id = 1;
  for (int i = 0; i < 100; ++i) {
    q.objects.push_back(MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-85, 85)}, 3.0));
  }
  auto workloads = SplitQueryByBucket(q, *map_);
  ASSERT_FALSE(workloads.empty());
  size_t assigned = 0;
  for (const auto& w : workloads) {
    EXPECT_FALSE(w.objects.empty());
    assigned += w.objects.size();
  }
  // Every object appears at least once (some straddle bucket borders and
  // appear in several workloads).
  EXPECT_GE(assigned, q.objects.size());
}

TEST_F(PreprocessorTest, ObjectAssignedToItsOwnBucket) {
  // The bucket containing the object's own HTM ID must be among the
  // object's assigned buckets.
  Rng rng(239);
  CrossMatchQuery q;
  q.id = 2;
  for (int i = 0; i < 50; ++i) {
    q.objects.push_back(MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-85, 85)}, 3.0));
  }
  auto workloads = SplitQueryByBucket(q, *map_);
  for (const auto& qo : q.objects) {
    BucketIndex home = map_->BucketOf(htm::PointToId(qo.sky()));
    bool found = false;
    for (const auto& w : workloads) {
      if (w.bucket != home) continue;
      for (const auto& o : w.objects) found |= (o.id == qo.id);
    }
    EXPECT_TRUE(found) << "object " << qo.id << " missing from home bucket";
  }
}

TEST_F(PreprocessorTest, WorkloadsSortedAndDeduplicated) {
  CrossMatchQuery q;
  q.id = 3;
  // Two identical objects with distinct ids, plus one elsewhere.
  q.objects.push_back(MakeQueryObject(0, {50, 10}, 3.0));
  q.objects.push_back(MakeQueryObject(1, {50, 10}, 3.0));
  q.objects.push_back(MakeQueryObject(2, {250, -40}, 3.0));
  auto workloads = SplitQueryByBucket(q, *map_);
  for (size_t i = 1; i < workloads.size(); ++i) {
    EXPECT_LT(workloads[i - 1].bucket, workloads[i].bucket);
  }
  // No object appears twice in one workload.
  for (const auto& w : workloads) {
    for (size_t i = 1; i < w.objects.size(); ++i) {
      EXPECT_NE(w.objects[i - 1].id, w.objects[i].id);
    }
  }
}

TEST_F(PreprocessorTest, ObjectsSharingAnIdAreBothAssigned) {
  // Ids come from the shipping site and need not be unique: two distinct
  // objects with one id are two sub-query objects.
  CrossMatchQuery q;
  q.id = 4;
  q.objects.push_back(MakeQueryObject(7, {50.0, 10.0}, 3.0));
  q.objects.push_back(MakeQueryObject(7, {50.001, 10.0}, 3.0));
  const BucketIndex home = map_->BucketOf(htm::PointToId(q.objects[0].sky()));
  ASSERT_EQ(map_->BucketOf(htm::PointToId(q.objects[1].sky())), home);
  auto workloads = SplitQueryByBucket(q, *map_);
  const BucketWorkload* w = nullptr;
  for (const auto& candidate : workloads) {
    if (candidate.bucket == home) w = &candidate;
  }
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->objects.size(), 2u);
  EXPECT_EQ(w->objects[0].ra_deg, 50.0);
  EXPECT_EQ(w->objects[1].ra_deg, 50.001);
}

// Reference split: per range, one BucketsOverlapping and one map lookup
// per bucket, deduplicated by id. For queries with distinct object ids it
// is the specification SplitQueryByBucket must match.
std::vector<BucketWorkload> MapBasedSplit(const CrossMatchQuery& query,
                                          const storage::BucketMap& map) {
  std::map<BucketIndex, std::vector<QueryObject>> by_bucket;
  for (const QueryObject& o : query.objects) {
    for (const htm::IdRange& r : o.htm_ranges.ranges()) {
      auto [lo_bucket, hi_bucket] = map.BucketsOverlapping(r.lo, r.hi);
      for (BucketIndex b = lo_bucket; b <= hi_bucket; ++b) {
        auto& vec = by_bucket[b];
        if (vec.empty() || vec.back().id != o.id) vec.push_back(o);
      }
    }
  }
  std::vector<BucketWorkload> out;
  for (auto& [bucket, objects] : by_bucket) {
    out.push_back(BucketWorkload{bucket, std::move(objects)});
  }
  return out;
}

// Random queries of 3", 300" and 900" objects, a third of them placed on
// the trixels either side of a bucket bound and a third on mesh-root
// edges (dec 0, RA multiples of 90, the poles): the split must give the
// reference's buckets, object order and ranges exactly.
TEST(PreprocessorEquivalenceTest, MatchesTheMapBasedSplit) {
  size_t multi_bucket_objects = 0;
  size_t multi_range_objects = 0;
  for (size_t per_bucket : {250u, 25u}) {
    auto partition =
        storage::PartitionCatalog(RandomObjects(5000, 229), per_bucket);
    ASSERT_TRUE(partition.ok());
    const storage::BucketMap& map = *partition->map;
    Rng rng(1201 + per_bucket);
    for (QueryId id = 1; id <= 40; ++id) {
      CrossMatchQuery q;
      q.id = id;
      const double radius = std::array<double, 3>{3.0, 300.0, 900.0}[id % 3];
      for (uint64_t i = 0; i < 60; ++i) {
        SkyPoint p;
        switch (rng.UniformU64(3)) {
          case 0: {
            const auto b = static_cast<BucketIndex>(
                1 + rng.UniformU64(map.num_buckets() - 1));
            const htm::HtmId bound = map.RangeOf(b).lo;
            p = htm::IdToCenter(rng.Bernoulli(0.5) ? bound : bound - 1);
            break;
          }
          case 1: {
            const double edge_ra =
                90.0 * static_cast<double>(rng.UniformU64(4));
            p = SkyPoint{std::fmod(edge_ra + rng.Normal(0, 0.05) + 360.0,
                                   360.0),
                         rng.Bernoulli(0.2)
                             ? (rng.Bernoulli(0.5) ? 89.99 : -89.99)
                             : rng.Normal(0, 0.05)};
            break;
          }
          default:
            p = SkyPoint{rng.UniformDouble(0, 360),
                         std::asin(rng.UniformDouble(-1, 1)) * kRadToDeg};
        }
        q.objects.push_back(MakeQueryObject(i, p, radius));
      }
      const auto got = SplitQueryByBucket(q, map);
      const auto want = MapBasedSplit(q, map);
      ASSERT_EQ(got.size(), want.size()) << "query " << id;
      for (size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(got[w].bucket, want[w].bucket);
        ASSERT_EQ(got[w].objects.size(), want[w].objects.size());
        for (size_t k = 0; k < want[w].objects.size(); ++k) {
          const QueryObject& a = got[w].objects[k];
          const QueryObject& b = want[w].objects[k];
          EXPECT_EQ(a.id, b.id);
          EXPECT_EQ(a.ra_deg, b.ra_deg);
          EXPECT_EQ(a.dec_deg, b.dec_deg);
          EXPECT_EQ(a.radius_arcsec, b.radius_arcsec);
          EXPECT_EQ(a.htm_ranges.ranges(), b.htm_ranges.ranges());
        }
      }
      for (const QueryObject& o : q.objects) {
        const auto& ranges = o.htm_ranges.ranges();
        const auto [lo, hi] =
            map.BucketsOverlapping(ranges.front().lo, ranges.back().hi);
        multi_bucket_objects += lo != hi;
        multi_range_objects += ranges.size() > 1;
      }
    }
  }
  // Both paths of the split ran: single-bucket hulls and per-range runs.
  EXPECT_GT(multi_bucket_objects, 100u);
  EXPECT_GT(multi_range_objects, 100u);
}

// -------------------------------------------------------- WorkloadManager --

CrossMatchQuery SmallQuery(QueryId id, TimeMs arrival, double ra, double dec,
                           int n_objects = 5) {
  CrossMatchQuery q;
  q.id = id;
  q.arrival_ms = arrival;
  for (int i = 0; i < n_objects; ++i) {
    q.objects.push_back(
        MakeQueryObject(i, {ra + i * 0.001, dec}, 3.0));
  }
  return q;
}

class WorkloadManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto partition = storage::PartitionCatalog(RandomObjects(5000, 241), 250);
    ASSERT_TRUE(partition.ok());
    map_ = partition->map;
    manager_ = std::make_unique<WorkloadManager>(map_->num_buckets());
  }

  Result<size_t> AdmitQuery(const CrossMatchQuery& q) {
    return manager_->Admit(q, SplitQueryByBucket(q, *map_));
  }

  std::shared_ptr<const storage::BucketMap> map_;
  std::unique_ptr<WorkloadManager> manager_;
};

TEST_F(WorkloadManagerTest, AdmitPopulatesQueues) {
  auto q = SmallQuery(1, 100.0, 80.0, 20.0);
  auto parts = AdmitQuery(q);
  ASSERT_TRUE(parts.ok());
  EXPECT_GE(*parts, 1u);
  EXPECT_EQ(manager_->pending_queries(), 1u);
  EXPECT_EQ(manager_->PendingParts(1), *parts);
  EXPECT_EQ(manager_->active_buckets().size(), *parts);
  EXPECT_GE(manager_->total_pending_objects(), 5u);
}

TEST_F(WorkloadManagerTest, RejectsDuplicateAndEmpty) {
  auto q = SmallQuery(1, 100.0, 80.0, 20.0);
  ASSERT_TRUE(AdmitQuery(q).ok());
  EXPECT_EQ(AdmitQuery(q).status().code(), StatusCode::kAlreadyExists);
  CrossMatchQuery empty;
  empty.id = 2;
  EXPECT_EQ(manager_->Admit(empty, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WorkloadManagerTest, TakeBucketCompletesQueries) {
  auto q = SmallQuery(7, 50.0, 120.0, -30.0);
  auto parts = AdmitQuery(q);
  ASSERT_TRUE(parts.ok());
  std::vector<QueryId> completed;
  std::vector<storage::BucketIndex> active(
      manager_->active_buckets().begin(), manager_->active_buckets().end());
  for (size_t i = 0; i < active.size(); ++i) {
    auto entries = manager_->TakeBucket(active[i], &completed);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    EXPECT_FALSE(entries->empty());
    if (i + 1 < active.size()) {
      EXPECT_TRUE(completed.empty());
    }
  }
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], 7u);
  EXPECT_EQ(manager_->pending_queries(), 0u);
  EXPECT_EQ(manager_->total_pending_objects(), 0u);
  EXPECT_TRUE(manager_->active_buckets().empty());
}

TEST_F(WorkloadManagerTest, InterleavesQueriesInOneQueue) {
  // Two queries over the same region share workload queues.
  auto q1 = SmallQuery(1, 10.0, 200.0, 45.0);
  auto q2 = SmallQuery(2, 20.0, 200.0, 45.0);
  ASSERT_TRUE(AdmitQuery(q1).ok());
  ASSERT_TRUE(AdmitQuery(q2).ok());
  BucketIndex shared = *manager_->active_buckets().begin();
  const WorkloadQueue& queue = manager_->queue(shared);
  EXPECT_GE(queue.entries().size(), 2u);
  // Age tracks the oldest entry.
  EXPECT_DOUBLE_EQ(queue.oldest_arrival_ms(), 10.0);
  EXPECT_DOUBLE_EQ(queue.AgeMs(110.0), 100.0);
}

TEST_F(WorkloadManagerTest, AgeZeroWhenEmpty) {
  const WorkloadQueue& queue = manager_->queue(0);
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.AgeMs(12345.0), 0.0);
}

TEST_F(WorkloadManagerTest, OldestAgeSurvivesYoungerArrivals) {
  auto q1 = SmallQuery(1, 100.0, 10.0, 5.0);
  auto q2 = SmallQuery(2, 50.0, 10.0, 5.0);  // older query admitted later
  ASSERT_TRUE(AdmitQuery(q1).ok());
  ASSERT_TRUE(AdmitQuery(q2).ok());
  BucketIndex b = *manager_->active_buckets().begin();
  EXPECT_DOUBLE_EQ(manager_->queue(b).oldest_arrival_ms(), 50.0);
}

}  // namespace
}  // namespace liferaft::query
