// Tests for the join layer. The central property: MergeCrossMatch,
// IndexedCrossMatch, and a brute-force O(n*m) reference all produce
// identical match sets, and RadiusTest's dot-product stage never
// changes a verdict or a separation of the exact test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "htm/htm.h"
#include "join/evaluator.h"
#include "join/hybrid.h"
#include "join/indexed_join.h"
#include "join/merge_join.h"
#include "query/preprocessor.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "storage/columnar.h"
#include "util/random.h"

namespace liferaft::join {
namespace {

using query::CrossMatchQuery;
using query::MakeQueryObject;
using query::Match;
using query::Predicate;
using query::QueryObject;
using query::WorkloadEntry;
using storage::CatalogObject;
using storage::MakeObject;

// Dense cluster of archive objects plus scattered background, so joins have
// real multi-match structure.
std::vector<CatalogObject> ClusteredObjects(size_t n, uint64_t seed,
                                            SkyPoint center, double spread) {
  Rng rng(seed);
  std::vector<CatalogObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SkyPoint p;
    if (rng.Bernoulli(0.7)) {
      p = SkyPoint{center.ra_deg + rng.Normal(0, spread),
                   center.dec_deg + rng.Normal(0, spread)};
      p.ra_deg = std::fmod(p.ra_deg + 360.0, 360.0);
      p.dec_deg = std::clamp(p.dec_deg, -89.9, 89.9);
    } else {
      p = SkyPoint{rng.UniformDouble(0, 360),
                   std::asin(rng.UniformDouble(-1, 1)) * kRadToDeg};
    }
    objects.push_back(MakeObject(i, p, 14.0f + static_cast<float>(i % 12),
                                 static_cast<float>(i % 7) * 0.3f));
  }
  return objects;
}

// Builds workload entries. Half the query objects are planted a fraction of
// the error radius away from real catalog objects (guaranteeing matches at
// any radius); the rest are random near the center.
std::vector<WorkloadEntry> MakeBatch(
    const SkyPoint& center, int n_queries, int objects_per_query,
    double radius, uint64_t seed, Predicate predicate = Predicate{},
    const std::vector<CatalogObject>* plant_near = nullptr) {
  Rng rng(seed);
  std::vector<WorkloadEntry> batch;
  for (int q = 0; q < n_queries; ++q) {
    WorkloadEntry e;
    e.query_id = static_cast<query::QueryId>(q + 1);
    e.arrival_ms = q * 10.0;
    e.predicate = predicate;
    for (int i = 0; i < objects_per_query; ++i) {
      SkyPoint p;
      if (plant_near != nullptr && !plant_near->empty() && i % 2 == 0) {
        const CatalogObject& co =
            (*plant_near)[rng.UniformU64(plant_near->size())];
        double off = radius / kArcsecPerDeg * 0.3;
        p = SkyPoint{co.ra_deg, std::clamp(co.dec_deg + off, -89.9, 89.9)};
      } else {
        p = SkyPoint{center.ra_deg + rng.Normal(0, 0.2),
                     center.dec_deg + rng.Normal(0, 0.2)};
      }
      e.objects.push_back(
          MakeQueryObject(static_cast<uint64_t>(i), p, radius));
    }
    batch.push_back(std::move(e));
  }
  return batch;
}

using MatchKey = std::tuple<query::QueryId, uint64_t, uint64_t>;

std::set<MatchKey> Keys(const std::vector<Match>& ms) {
  std::set<MatchKey> keys;
  for (const auto& m : ms) {
    keys.insert({m.query_id, m.query_object_id, m.catalog_object_id});
  }
  return keys;
}

// One bucket owning the whole curve, over objects sorted by HTM id: keeps a
// test focused on join correctness rather than partitioning.
storage::Bucket WholeCurveBucket(const std::vector<CatalogObject>& objects) {
  auto page = storage::ColumnarPage::Encode(
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return storage::Bucket(0, std::move(*page));
}

// Brute force over a bucket's objects (no coarse filter at all).
std::vector<Match> BruteForce(const std::vector<CatalogObject>& objects,
                              const std::vector<WorkloadEntry>& batch) {
  std::vector<Match> out;
  for (const auto& e : batch) {
    for (const auto& qo : e.objects) {
      for (const auto& co : objects) {
        double sep = 0.0;
        if (WithinRadius(qo, co, &sep) && e.predicate.Matches(co)) {
          out.push_back(Match{e.query_id, qo.id, co.object_id, sep});
        }
      }
    }
  }
  return out;
}

class JoinAgreementTest : public ::testing::TestWithParam<double> {};

TEST_P(JoinAgreementTest, AllStrategiesAgreeWithBruteForce) {
  const double radius = GetParam();
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  const storage::Bucket bucket = WholeCurveBucket(objects);
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  auto batch = MakeBatch(center, 3, 40, radius, 257, Predicate{}, &objects);

  std::vector<Match> merge_out, indexed_out;
  MergeCrossMatch(bucket, batch, &merge_out);
  IndexedCrossMatch(*tree, bucket.range(), batch, &indexed_out);
  auto brute = BruteForce(objects, batch);

  EXPECT_EQ(Keys(merge_out), Keys(brute)) << "merge != brute, r=" << radius;
  EXPECT_EQ(Keys(indexed_out), Keys(brute)) << "index != brute, r=" << radius;
  EXPECT_FALSE(brute.empty()) << "degenerate test: no matches at all";
}

INSTANTIATE_TEST_SUITE_P(Radii, JoinAgreementTest,
                         ::testing::Values(1.0, 3.0, 10.0, 60.0, 600.0));

TEST(MergeJoinTest, PredicatesFilterOutput) {
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(2000, 263, center, 0.2);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  const storage::Bucket bucket = WholeCurveBucket(objects);

  auto open_batch = MakeBatch(center, 2, 30, 30.0, 269);
  Predicate narrow;
  narrow.min_mag = 18.0f;
  auto narrow_batch = MakeBatch(center, 2, 30, 30.0, 269, narrow);

  std::vector<Match> open_out, narrow_out;
  auto open_counters = MergeCrossMatch(bucket, open_batch, &open_out);
  auto narrow_counters = MergeCrossMatch(bucket, narrow_batch, &narrow_out);

  // Spatial work identical; output filtered.
  EXPECT_EQ(open_counters.spatial_matches, narrow_counters.spatial_matches);
  EXPECT_LT(narrow_counters.output_matches, open_counters.output_matches);
  for (const auto& m : narrow_out) {
    (void)m;  // all surviving matches satisfy the predicate by construction
  }
  EXPECT_EQ(narrow_out.size(), narrow_counters.output_matches);
}

TEST(MergeJoinTest, CountersAddUp) {
  SkyPoint center{80.0, -10.0};
  auto objects = ClusteredObjects(1000, 271, center, 0.2);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  const storage::Bucket bucket = WholeCurveBucket(objects);
  auto batch = MakeBatch(center, 2, 25, 5.0, 277);
  std::vector<Match> out;
  auto counters = MergeCrossMatch(bucket, batch, &out);
  EXPECT_EQ(counters.workload_objects, 50u);
  EXPECT_GE(counters.candidates_tested, counters.spatial_matches);
  EXPECT_GE(counters.spatial_matches, counters.output_matches);
  EXPECT_EQ(counters.output_matches, out.size());
}

TEST(MergeJoinTest, RespectsBucketBoundary) {
  // A query object is matched only against objects inside the bucket's
  // range — the per-bucket decomposition must not double-count.
  auto objects = ClusteredObjects(3000, 281, {10.0, 10.0}, 0.5);
  auto partition = storage::PartitionCatalog(objects, 300);
  ASSERT_TRUE(partition.ok());

  CrossMatchQuery q;
  q.id = 1;
  Rng rng(283);
  for (int i = 0; i < 60; ++i) {
    q.objects.push_back(MakeQueryObject(
        i, {10.0 + rng.Normal(0, 0.5), 10.0 + rng.Normal(0, 0.5)}, 20.0));
  }
  auto workloads = query::SplitQueryByBucket(q, *partition->map);

  // Join each bucket's workload against its own bucket; every (query
  // object, catalog object) pair must appear at most once overall.
  std::set<MatchKey> seen;
  for (const auto& w : workloads) {
    WorkloadEntry e;
    e.query_id = q.id;
    e.objects = w.objects;
    std::vector<Match> out;
    const std::vector<WorkloadEntry> batch = {e};
    MergeCrossMatch(partition->buckets[w.bucket], batch, &out);
    for (const auto& m : out) {
      MatchKey key{m.query_id, m.query_object_id, m.catalog_object_id};
      EXPECT_EQ(seen.count(key), 0u) << "duplicate match across buckets";
      seen.insert(key);
    }
  }
  EXPECT_FALSE(seen.empty());
}

// ------------------------------------------------- page vs row kernels --

bool SameMatches(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].query_id != b[i].query_id ||
        a[i].query_object_id != b[i].query_object_id ||
        a[i].catalog_object_id != b[i].catalog_object_id ||
        a[i].separation_arcsec != b[i].separation_arcsec ||
        a[i].ra_deg != b[i].ra_deg || a[i].dec_deg != b[i].dec_deg) {
      return false;
    }
  }
  return true;
}

class ColumnarKernelTest : public ::testing::TestWithParam<double> {};

// The merge sweep over a bucket page must reproduce the B+tree kernel over
// the same objects as rows EXACTLY: same matches in the same order with
// bit-identical separations and positions, and the same counters. Both
// visit each HTM window in (htm_id, object_id) order, so the scan and
// probe paths of the hybrid join report one result.
TEST_P(ColumnarKernelTest, ColumnarPathsMatchRowPathsBitForBit) {
  const double radius = GetParam();
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;

  const storage::Bucket bucket = WholeCurveBucket(objects);
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  Predicate narrow;
  narrow.min_mag = 16.0f;
  auto batch = MakeBatch(center, 3, 40, radius, 257, narrow, &objects);

  std::vector<Match> merge, indexed;
  const JoinCounters merge_c = MergeCrossMatch(bucket, batch, &merge);
  const JoinCounters indexed_c =
      IndexedCrossMatch(*tree, bucket.range(), batch, &indexed).join;
  EXPECT_TRUE(SameMatches(merge, indexed)) << "r=" << radius;
  EXPECT_EQ(merge_c.workload_objects, indexed_c.workload_objects);
  EXPECT_EQ(merge_c.candidates_tested, indexed_c.candidates_tested);
  EXPECT_EQ(merge_c.spatial_matches, indexed_c.spatial_matches);
  EXPECT_EQ(merge_c.output_matches, indexed_c.output_matches);
  EXPECT_GT(merge_c.spatial_matches, merge_c.output_matches)
      << "degenerate test: the predicate filters nothing";
  EXPECT_FALSE(merge.empty()) << "degenerate test: no matches";
}

INSTANTIATE_TEST_SUITE_P(Radii, ColumnarKernelTest,
                         ::testing::Values(1.0, 10.0, 600.0));

// ------------------------------------------------------------ RadiusTest --

// The radius test reads only the query position and radius.
QueryObject QueryAt(const Vec3& pos, double radius_arcsec) {
  QueryObject qo;
  qo.pos = pos;
  qo.radius_arcsec = radius_arcsec;
  return qo;
}

Vec3 RandomUnitVector(Rng* rng) {
  return Vec3{rng->Normal(), rng->Normal(), rng->Normal()}.Normalized();
}

// The unit vector `theta` radians from unit vector `a`, in a random
// direction.
Vec3 AtAngle(const Vec3& a, double theta, Rng* rng) {
  const Vec3 r = RandomUnitVector(rng);
  const Vec3 t = (r - a * r.Dot(a)).Normalized();
  return (a * std::cos(theta) + t * std::sin(theta)).Normalized();
}

// Stage one may reject only what the exact test rejects. Over pairs whose
// separation is within 1e-6 (relative) of the radius, pairs around stage
// one's own bound, and identical and antipodal pairs, RadiusTest gives
// WithinRadius's verdict, and every accepted separation has its bits.
TEST(RadiusTestTest, AgreesBitForBitWithTheExactTest) {
  // 0, 0.001″, 1″, 10″, 300″, 1°, 180° and 200°.
  const double kRadiiArcsec[] = {0.0,   0.001,  1.0,      10.0,
                                 300.0, 3600.0, 648000.0, 720000.0};
  Rng rng(401);
  uint64_t pairs = 0, accepted = 0, stage_one_rejects = 0;
  uint64_t verdict_mismatches = 0, sep_mismatches = 0;
  auto check = [&](const QueryObject& qo, const Vec3& pos) {
    const RadiusTest test(qo);
    double exact_sep = -1.0;
    double sep = -1.0;
    const bool exact = WithinRadius(qo, pos, &exact_sep);
    const bool two_stage = test(pos, &sep);
    ++pairs;
    if (qo.pos.Dot(pos) < test.min_dot()) ++stage_one_rejects;
    if (two_stage != exact) ++verdict_mismatches;
    if (exact && two_stage) {
      ++accepted;
      if (std::bit_cast<uint64_t>(sep) != std::bit_cast<uint64_t>(exact_sep)) {
        ++sep_mismatches;
      }
    }
  };
  for (double radius : kRadiiArcsec) {
    const double r = radius / kArcsecPerDeg * kDegToRad;
    // Stage one's bound as an angle (pi when stage one is off).
    const double bound = std::acos(
        std::max(RadiusTest(QueryAt(Vec3{1, 0, 0}, radius)).min_dot(), -1.0));
    for (int i = 0; i < 100'000; ++i) {
      const Vec3 a = RandomUnitVector(&rng);
      const QueryObject qo = QueryAt(a, radius);
      check(qo, AtAngle(a, r * (1.0 + rng.UniformDouble(-1e-6, 1e-6)), &rng));
      check(qo, AtAngle(a, bound * rng.UniformDouble(0.5, 1.5), &rng));
    }
    for (int i = 0; i < 1000; ++i) {
      const Vec3 a = RandomUnitVector(&rng);
      check(QueryAt(a, radius), a);
      check(QueryAt(a, radius), a * -1.0);
    }
  }
  EXPECT_EQ(verdict_mismatches, 0u);
  EXPECT_EQ(sep_mismatches, 0u);
  EXPECT_GE(pairs, 1'000'000u);
  EXPECT_GT(accepted, pairs / 4) << "degenerate test: too few accepted";
  EXPECT_GT(stage_one_rejects, pairs / 8) << "stage one never engaged";
}

// The scan form of stage one stops exactly on the rows operator() would
// pass to WithinRadius, NaN dot products and a NaN radius included.
TEST(RadiusTestTest, NextCandidateStopsWhereStageOneAccepts) {
  Rng rng(409);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double radius : {0.0, 10.0, 300.0, 3600.0, nan}) {
    const QueryObject qo = QueryAt(RandomUnitVector(&rng), radius);
    const RadiusTest test(qo);
    // Separations up to 3 radii (30″ at r = 0 and for NaN).
    const double scale = radius > 0.0 ? radius : 10.0;
    std::vector<Vec3> pos;
    for (int i = 0; i < 2000; ++i) {
      const double theta =
          scale / kArcsecPerDeg * kDegToRad * rng.UniformDouble(0.0, 3.0);
      pos.push_back(i % 97 == 0 ? Vec3{nan, 0, 0}
                                : AtAngle(qo.pos, theta, &rng));
    }
    std::vector<size_t> want;
    for (size_t i = 0; i < pos.size(); ++i) {
      if (!(qo.pos.Dot(pos[i]) < test.min_dot())) want.push_back(i);
    }
    std::vector<size_t> got;
    for (size_t i = test.NextCandidate(pos, 0); i < pos.size();
         i = test.NextCandidate(pos, i + 1)) {
      got.push_back(i);
    }
    EXPECT_EQ(got, want) << "r=" << radius;
    if (std::isnan(radius)) {
      EXPECT_EQ(got.size(), pos.size()) << "NaN radius: stage one is off";
    } else {
      EXPECT_LT(want.size(), pos.size()) << "stage one never engaged";
    }
  }
}

// The bound never exceeds cos(r + 1e-9) - 1e-12, and from 2 rad up (where
// cos stops being a usable bound near pi) it sits below every dot product.
TEST(RadiusTestTest, BoundStaysBelowTheCosineBound) {
  const Vec3 x{1, 0, 0};
  for (double radius : {0.0, 1.0, 300.0, 3600.0, 36000.0, 200'000.0}) {
    const double w = radius / kArcsecPerDeg * kDegToRad + 1e-9;
    const double min_dot = RadiusTest(QueryAt(x, radius)).min_dot();
    EXPECT_LE(min_dot, std::cos(w) - 1e-12) << radius;
    EXPECT_GE(min_dot, std::cos(w) - 1e-12 - w * w * w * w / 24 - 1e-15)
        << radius;
  }
  const double two_rad = 2.0 * kRadToDeg * kArcsecPerDeg;
  for (double radius :
       {two_rad, 648000.0, 720000.0, std::numeric_limits<double>::infinity()}) {
    EXPECT_LT(RadiusTest(QueryAt(x, radius)).min_dot(), -1.0 - 1e-13)
        << radius;
  }
  // NaN compares false, so stage one passes every candidate to stage two.
  EXPECT_TRUE(std::isnan(RadiusTest(QueryAt(x, std::nan(""))).min_dot()));
}

// ------------------------------------------------ wide-radius kernels --

std::vector<Match> SortedByKey(std::vector<Match> ms) {
  std::sort(ms.begin(), ms.end(), [](const Match& a, const Match& b) {
    return std::tie(a.query_id, a.query_object_id, a.catalog_object_id) <
           std::tie(b.query_id, b.query_object_id, b.catalog_object_id);
  });
  return ms;
}

// What a kernel must report for `batch` over `bucket`: the exact test
// alone, run on every bucket object, decides the matches and their
// separations; `window_size(qo)` is how many candidates the kernel's coarse
// filter visits for qo.
template <typename WindowSize>
std::pair<JoinCounters, std::vector<Match>> ExactReference(
    const std::vector<CatalogObject>& objects,
    const std::vector<WorkloadEntry>& batch, WindowSize window_size) {
  JoinCounters counters;
  std::vector<Match> matches;
  for (const auto& e : batch) {
    for (const auto& qo : e.objects) {
      ++counters.workload_objects;
      counters.candidates_tested += window_size(qo);
      for (const auto& co : objects) {
        double sep = 0.0;
        if (!WithinRadius(qo, co, &sep)) continue;
        ++counters.spatial_matches;
        if (!e.predicate.Matches(co)) continue;
        ++counters.output_matches;
        matches.push_back(Match{e.query_id, qo.id, co.object_id, sep,
                                co.ra_deg, co.dec_deg});
      }
    }
  }
  return {counters, SortedByKey(std::move(matches))};
}

void ExpectSameCounters(const JoinCounters& got, const JoinCounters& want,
                        const std::string& kernel) {
  EXPECT_EQ(got.workload_objects, want.workload_objects) << kernel;
  EXPECT_EQ(got.candidates_tested, want.candidates_tested) << kernel;
  EXPECT_EQ(got.spatial_matches, want.spatial_matches) << kernel;
  EXPECT_EQ(got.output_matches, want.output_matches) << kernel;
}

// At 300″ the coarse windows hold several candidates per match, so stage
// one rejects most pairs. The merge and B+tree kernels must still
// report exactly what the exact test alone gives: every JoinCounters
// field, and every match with its separation bits.
TEST(WideRadiusJoinTest, AllKernelsMatchTheExactReference) {
  constexpr double kRadius = 300.0;
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;
  const storage::Bucket bucket = WholeCurveBucket(objects);
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  Predicate narrow;
  narrow.min_mag = 16.0f;
  auto batch = MakeBatch(center, 3, 40, kRadius, 257, narrow, &objects);

  // Merge and indexed kernels visit the objects in the query's HTM ranges.
  const auto [htm_want, htm_matches] =
      ExactReference(objects, batch, [&](const QueryObject& qo) {
        uint64_t n = 0;
        for (const auto& co : objects) {
          for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
            if (co.htm_id >= r.lo && co.htm_id <= r.hi) ++n;
          }
        }
        return n;
      });
  ASSERT_GT(htm_want.candidates_tested, 2 * htm_want.spatial_matches);
  ASSERT_GT(htm_want.spatial_matches, htm_want.output_matches);
  ASSERT_GT(htm_want.output_matches, 0u);

  auto expect_exact = [](const JoinCounters& got, std::vector<Match> out,
                         const JoinCounters& want,
                         const std::vector<Match>& want_matches,
                         const std::string& kernel) {
    ExpectSameCounters(got, want, kernel);
    EXPECT_TRUE(SameMatches(SortedByKey(std::move(out)), want_matches))
        << kernel;
  };
  std::vector<Match> out;
  JoinCounters got = MergeCrossMatch(bucket, batch, &out);
  expect_exact(got, std::move(out), htm_want, htm_matches, "merge");
  out = {};
  got = IndexedCrossMatch(*tree, bucket.range(), batch, &out).join;
  expect_exact(got, std::move(out), htm_want, htm_matches, "B+tree indexed");
}

// Query objects on the trixels either side of each bound of a partitioned
// bucket: their hulls straddle the bucket range, so some of their ranges
// lie outside it and one window is clipped at a bound. The merge kernel
// must still report what the exact test gives over the bucket's own
// objects, and the B+tree kernel restricted to the bucket range, bit for
// bit: every JoinCounters field and every match.
TEST(MergeJoinTest, HullStraddlingTheBucketRangeMatchesTheReferences) {
  constexpr double kRadius = 300.0;
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;
  auto partition = storage::PartitionCatalog(objects, 400);
  ASSERT_TRUE(partition.ok());
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  Rng rng(419);
  size_t straddling = 0;
  uint64_t matches = 0;
  for (const storage::Bucket& bucket : partition->buckets) {
    const htm::IdRange range = bucket.range();
    std::vector<CatalogObject> in_bucket;
    for (const auto& co : objects) {
      if (range.Contains(co.htm_id)) in_bucket.push_back(co);
    }
    WorkloadEntry entry;
    entry.query_id = 1;
    entry.predicate.min_mag = 16.0f;
    uint64_t next_id = 0;
    for (htm::HtmId id : {range.lo, range.lo - 1, range.hi, range.hi + 1}) {
      if (id < htm::LevelMin(htm::kObjectLevel) ||
          id > htm::LevelMax(htm::kObjectLevel)) {
        continue;
      }
      const SkyPoint c = htm::IdToCenter(id);
      for (int k = 0; k < 4; ++k) {
        const SkyPoint p{c.ra_deg + rng.Normal(0, 0.01),
                         c.dec_deg + rng.Normal(0, 0.01)};
        entry.objects.push_back(MakeQueryObject(next_id++, p, kRadius));
      }
    }
    for (const QueryObject& qo : entry.objects) {
      const auto& ranges = qo.htm_ranges.ranges();
      const bool reaches_in = qo.htm_ranges.Overlaps(range);
      const bool reaches_out =
          ranges.front().lo < range.lo || ranges.back().hi > range.hi;
      straddling += reaches_in && reaches_out;
    }
    const std::vector<WorkloadEntry> batch = {entry};

    const auto [want, want_matches] =
        ExactReference(in_bucket, batch, [&](const QueryObject& qo) {
          uint64_t n = 0;
          for (const auto& co : in_bucket) {
            n += qo.htm_ranges.Contains(co.htm_id);
          }
          return n;
        });
    std::vector<Match> merge, indexed;
    const JoinCounters merge_c = MergeCrossMatch(bucket, batch, &merge);
    const JoinCounters indexed_c =
        IndexedCrossMatch(*tree, range, batch, &indexed).join;
    ExpectSameCounters(merge_c, want, "merge");
    ExpectSameCounters(indexed_c, want, "B+tree indexed");
    EXPECT_TRUE(SameMatches(merge, indexed)) << "bucket " << bucket.index();
    EXPECT_TRUE(SameMatches(SortedByKey(merge), want_matches))
        << "bucket " << bucket.index();
    matches += want.output_matches;
  }
  EXPECT_GT(straddling, 20u) << "degenerate test: no hull straddles a bound";
  EXPECT_GT(matches, 0u) << "degenerate test: no matches";
}

// ---------------------------------------------------------------- Hybrid --

TEST(HybridTest, ThresholdSelectsStrategy) {
  HybridConfig config;  // threshold 0.03
  EXPECT_EQ(ChooseStrategy(config, 100, 10000, false),
            JoinStrategy::kIndexed);  // 1% < 3%
  EXPECT_EQ(ChooseStrategy(config, 500, 10000, false),
            JoinStrategy::kScan);  // 5% > 3%
  EXPECT_EQ(ChooseStrategy(config, 300, 10000, false),
            JoinStrategy::kScan);  // exactly 3% -> scan
}

TEST(HybridTest, CachedBucketPrefersScan) {
  HybridConfig config;
  EXPECT_EQ(ChooseStrategy(config, 1, 10000, true), JoinStrategy::kScan);
}

TEST(HybridTest, DegenerateThresholds) {
  HybridConfig config;
  config.index_threshold = 0.0;
  EXPECT_EQ(ChooseStrategy(config, 1, 10000, false), JoinStrategy::kScan);
  config.index_threshold = 2.0;
  EXPECT_EQ(ChooseStrategy(config, 9999, 10000, false),
            JoinStrategy::kIndexed);
}

TEST(HybridTest, BreakEvenNearPaperThreePercent) {
  storage::DiskModel model;
  double ratio = BreakEvenRatio(model, 10000);
  EXPECT_GT(ratio, 0.02);
  EXPECT_LT(ratio, 0.04);
}

// ------------------------------------------------------------- Evaluator --

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::CatalogOptions options;
    options.objects_per_bucket = 500;
    auto catalog = storage::Catalog::Build(
        ClusteredObjects(5000, 293, {60.0, 30.0}, 0.4), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);
    cache_ = std::make_unique<storage::BucketCache>(catalog_->store(), 4);
    evaluator_ = std::make_unique<JoinEvaluator>(
        cache_.get(), catalog_->index(), storage::DiskModel{},
        HybridConfig{});
  }

  // Builds a batch targeted at one bucket, sized to `n_objects`.
  std::pair<storage::BucketIndex, std::vector<WorkloadEntry>> TargetedBatch(
      int n_objects, uint64_t seed) {
    CrossMatchQuery q;
    q.id = next_query_id_++;
    Rng rng(seed);
    for (int i = 0; i < n_objects; ++i) {
      q.objects.push_back(MakeQueryObject(
          i, {60.0 + rng.Normal(0, 0.3), 30.0 + rng.Normal(0, 0.3)}, 5.0));
    }
    auto workloads = query::SplitQueryByBucket(q, catalog_->bucket_map());
    // Pick the largest workload.
    size_t best = 0;
    for (size_t i = 1; i < workloads.size(); ++i) {
      if (workloads[i].objects.size() > workloads[best].objects.size()) {
        best = i;
      }
    }
    WorkloadEntry e;
    e.query_id = q.id;
    e.predicate = q.predicate;
    e.objects = workloads[best].objects;
    return {workloads[best].bucket, {std::move(e)}};
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<storage::BucketCache> cache_;
  std::unique_ptr<JoinEvaluator> evaluator_;
  query::QueryId next_query_id_ = 1;
};

TEST_F(EvaluatorTest, RejectsEmptyBatch) {
  EXPECT_FALSE(evaluator_->EvaluateBucket(0, {}).ok());
}

TEST_F(EvaluatorTest, LargeBatchScansAndChargesTb) {
  auto [bucket, batch] = TargetedBatch(400, 307);  // 80% of bucket
  auto result = evaluator_->EvaluateBucket(bucket, batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, JoinStrategy::kScan);
  EXPECT_FALSE(result->cache_hit);
  storage::DiskModel model;
  uint64_t bytes = 500ull * storage::Bucket::kBytesPerObject;
  double expected =
      model.ScanJoinMs(bytes, batch[0].objects.size(), false);
  EXPECT_NEAR(result->cost_ms, expected, 1e-9);
}

TEST_F(EvaluatorTest, SecondScanIsCacheHitAndCheaper) {
  auto [bucket, batch] = TargetedBatch(400, 311);
  auto first = evaluator_->EvaluateBucket(bucket, batch);
  ASSERT_TRUE(first.ok());
  auto second = evaluator_->EvaluateBucket(bucket, batch);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_LT(second->cost_ms, first->cost_ms);
  // Identical matches both times.
  EXPECT_EQ(Keys(first->matches), Keys(second->matches));
}

TEST_F(EvaluatorTest, TinyBatchUsesIndexAndSkipsCache) {
  auto [bucket, batch] = TargetedBatch(400, 313);
  batch[0].objects.resize(5);  // 1% of bucket -> indexed
  auto result = evaluator_->EvaluateBucket(bucket, batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, JoinStrategy::kIndexed);
  EXPECT_FALSE(cache_->Contains(bucket)) << "indexed join must not cache";
  storage::DiskModel model;
  EXPECT_NEAR(result->cost_ms, model.IndexedJoinMs(5), 1e-9);
}

TEST_F(EvaluatorTest, IndexedAndScanAgreeOnMatches) {
  auto [bucket, batch] = TargetedBatch(100, 317);
  batch[0].objects.resize(8);
  auto indexed = evaluator_->EvaluateBucket(bucket, batch);
  ASSERT_TRUE(indexed.ok());
  ASSERT_EQ(indexed->strategy, JoinStrategy::kIndexed);

  // Force the scan path via a no-index evaluator on the same cache.
  JoinEvaluator scan_only(cache_.get(), nullptr, storage::DiskModel{},
                          HybridConfig{});
  auto scanned = scan_only.EvaluateBucket(bucket, batch);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->strategy, JoinStrategy::kScan);
  EXPECT_EQ(Keys(indexed->matches), Keys(scanned->matches));
}

TEST_F(EvaluatorTest, StatsAccumulate) {
  auto [bucket, batch] = TargetedBatch(400, 331);
  ASSERT_TRUE(evaluator_->EvaluateBucket(bucket, batch).ok());
  auto [bucket2, batch2] = TargetedBatch(400, 337);
  batch2[0].objects.resize(4);
  cache_->Clear();  // ensure the tiny batch sees an uncached bucket
  ASSERT_TRUE(evaluator_->EvaluateBucket(bucket2, batch2).ok());
  EXPECT_EQ(evaluator_->stats().batches, 2u);
  EXPECT_EQ(evaluator_->stats().scan_batches, 1u);
  EXPECT_EQ(evaluator_->stats().indexed_batches, 1u);
  EXPECT_EQ(evaluator_->stats().index_probes, 4u);
  EXPECT_GT(evaluator_->stats().total_cost_ms, 0.0);
  evaluator_->ResetStats();
  EXPECT_EQ(evaluator_->stats().batches, 0u);
}

TEST_F(EvaluatorTest, CollectMatchesFalseSuppressesTuples) {
  auto [bucket, batch] = TargetedBatch(400, 347);
  auto result = evaluator_->EvaluateBucket(bucket, batch, false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matches.empty());
  EXPECT_GT(result->counters.output_matches, 0u);
}

}  // namespace
}  // namespace liferaft::join
