// Tests for the join layer. The central property: MergeCrossMatch,
// ZonesCrossMatch, IndexedCrossMatch, and a brute-force O(n*m) reference
// all produce identical match sets, and RadiusTest's dot-product stage never
// changes a verdict or a separation of the exact test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "join/evaluator.h"
#include "join/hybrid.h"
#include "join/indexed_join.h"
#include "join/merge_join.h"
#include "join/zones.h"
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

// Brute force over a bucket (no coarse filter at all).
std::vector<Match> BruteForce(const storage::Bucket& bucket,
                              const std::vector<WorkloadEntry>& batch) {
  std::vector<Match> out;
  for (const auto& e : batch) {
    for (const auto& qo : e.objects) {
      for (const auto& co : bucket.objects()) {
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

  // One bucket covering the whole curve keeps the test focused on join
  // correctness rather than partitioning.
  storage::Bucket bucket(
      0,
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  auto batch = MakeBatch(center, 3, 40, radius, 257, Predicate{}, &objects);

  std::vector<Match> merge_out, zones_out, indexed_out;
  MergeCrossMatch(bucket, batch, &merge_out);
  ZonesCrossMatch(bucket, batch, std::max(radius / kArcsecPerDeg, 0.05),
                  &zones_out);
  IndexedCrossMatch(*tree, bucket.range(), batch, &indexed_out);
  auto brute = BruteForce(bucket, batch);

  EXPECT_EQ(Keys(merge_out), Keys(brute)) << "merge != brute, r=" << radius;
  EXPECT_EQ(Keys(zones_out), Keys(brute)) << "zones != brute, r=" << radius;
  EXPECT_EQ(Keys(indexed_out), Keys(brute)) << "index != brute, r=" << radius;
  EXPECT_FALSE(brute.empty()) << "degenerate test: no matches at all";
}

INSTANTIATE_TEST_SUITE_P(Radii, JoinAgreementTest,
                         ::testing::Values(1.0, 3.0, 10.0, 60.0, 600.0));

TEST(MergeJoinTest, PredicatesFilterOutput) {
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(2000, 263, center, 0.2);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  storage::Bucket bucket(
      0,
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);

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
  storage::Bucket bucket(
      0,
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
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

// -------------------------------------------------------- columnar kernels --

// A columnar twin of a row bucket, via a real encode/parse round trip.
storage::Bucket ColumnarTwin(const storage::Bucket& row_bucket) {
  std::string page;
  storage::EncodeColumnarPage(row_bucket, &page);
  std::unique_ptr<char[]> buf(new char[page.size()]);
  std::memcpy(buf.get(), page.data(), page.size());
  auto parsed = storage::ColumnarPage::Parse(std::move(buf), page.size());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return storage::Bucket(row_bucket.index(), std::move(*parsed));
}

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

// The zero-copy columnar sweeps must reproduce the row kernels EXACTLY:
// same matches in the same order with bit-identical separations and
// positions, and the same counters — that is what makes the on-disk
// format invisible to every result the engine reports.
TEST_P(ColumnarKernelTest, ColumnarPathsMatchRowPathsBitForBit) {
  const double radius = GetParam();
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;

  storage::Bucket row_bucket(
      0,
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  storage::Bucket col_bucket = ColumnarTwin(row_bucket);
  ASSERT_TRUE(col_bucket.is_columnar());

  Predicate narrow;
  narrow.min_mag = 16.0f;
  auto batch = MakeBatch(center, 3, 40, radius, 257, narrow, &objects);

  std::vector<Match> row_merge, col_merge;
  auto row_merge_c = MergeCrossMatch(row_bucket, batch, &row_merge);
  auto col_merge_c = MergeCrossMatch(col_bucket, batch, &col_merge);
  EXPECT_TRUE(SameMatches(row_merge, col_merge)) << "merge r=" << radius;
  EXPECT_EQ(row_merge_c.candidates_tested, col_merge_c.candidates_tested);
  EXPECT_EQ(row_merge_c.spatial_matches, col_merge_c.spatial_matches);
  EXPECT_EQ(row_merge_c.output_matches, col_merge_c.output_matches);

  const double zone_deg = std::max(radius / kArcsecPerDeg, 0.05);
  std::vector<Match> row_zones, col_zones;
  ZonesCrossMatch(row_bucket, batch, zone_deg, &row_zones);
  ZonesCrossMatch(col_bucket, batch, zone_deg, &col_zones);
  EXPECT_TRUE(SameMatches(row_zones, col_zones)) << "zones r=" << radius;

  // The columnar indexed path probes the id column directly (no B+tree);
  // it must agree with the row merge sweep on the same restriction.
  std::vector<Match> col_indexed;
  IndexedCrossMatchInto(col_bucket.view(), col_bucket.range(),
                        std::span<const WorkloadEntry>(batch), &col_indexed);
  EXPECT_EQ(Keys(col_indexed), Keys(row_merge)) << "indexed r=" << radius;
  EXPECT_FALSE(row_merge.empty()) << "degenerate test: no matches";
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
    const storage::Bucket& bucket, const std::vector<WorkloadEntry>& batch,
    WindowSize window_size) {
  JoinCounters counters;
  std::vector<Match> matches;
  for (const auto& e : batch) {
    for (const auto& qo : e.objects) {
      ++counters.workload_objects;
      counters.candidates_tested += window_size(qo);
      for (const auto& co : bucket.objects()) {
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
// one rejects most pairs. All six kernels must still report exactly what
// the exact test alone gives: every JoinCounters field, and every match
// with its separation bits.
TEST(WideRadiusJoinTest, AllKernelsMatchTheExactReference) {
  constexpr double kRadius = 300.0;
  SkyPoint center{150.0, 25.0};
  auto objects = ClusteredObjects(4000, 251, center, 0.3);
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;
  storage::Bucket row_bucket(
      0,
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  storage::Bucket col_bucket = ColumnarTwin(row_bucket);
  ASSERT_TRUE(col_bucket.is_columnar());
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  Predicate narrow;
  narrow.min_mag = 16.0f;
  auto batch = MakeBatch(center, 3, 40, kRadius, 257, narrow, &objects);

  // Merge and indexed kernels visit the objects in the query's HTM ranges.
  const auto [htm_want, htm_matches] =
      ExactReference(row_bucket, batch, [&](const QueryObject& qo) {
        uint64_t n = 0;
        for (const auto& co : objects) {
          for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
            if (co.htm_id >= r.lo && co.htm_id <= r.hi) ++n;
          }
        }
        return n;
      });
  // Zones kernels visit the zone index's RA/Dec window.
  const double zone_deg = kRadius / kArcsecPerDeg;
  const ZoneIndex zones(row_bucket, zone_deg);
  const auto [zone_want, zone_matches] =
      ExactReference(row_bucket, batch, [&](const QueryObject& qo) {
        std::vector<const CatalogObject*> window;
        zones.Candidates(qo, &window);
        return window.size();
      });
  ASSERT_GT(htm_want.candidates_tested, 2 * htm_want.spatial_matches);
  ASSERT_GT(zone_want.candidates_tested, zone_want.spatial_matches);
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
  const std::span<const WorkloadEntry> all(batch);
  std::vector<Match> out;
  JoinCounters got = MergeCrossMatch(row_bucket, batch, &out);
  expect_exact(got, std::move(out), htm_want, htm_matches, "row merge");
  out = {};
  got = MergeCrossMatch(col_bucket, batch, &out);
  expect_exact(got, std::move(out), htm_want, htm_matches, "columnar merge");
  out = {};
  got = IndexedCrossMatch(*tree, row_bucket.range(), batch, &out).join;
  expect_exact(got, std::move(out), htm_want, htm_matches, "B+tree indexed");
  out = {};
  got = IndexedCrossMatchInto(col_bucket.view(), col_bucket.range(), all,
                              &out)
            .join;
  expect_exact(got, std::move(out), htm_want, htm_matches,
               "columnar indexed");
  out = {};
  got = ZonesCrossMatch(row_bucket, batch, zone_deg, &out);
  expect_exact(got, std::move(out), zone_want, zone_matches, "row zones");
  out = {};
  got = ZonesCrossMatch(col_bucket, batch, zone_deg, &out);
  expect_exact(got, std::move(out), zone_want, zone_matches,
               "columnar zones");
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
  config.prefer_scan_when_cached = false;
  EXPECT_EQ(ChooseStrategy(config, 1, 10000, true), JoinStrategy::kIndexed);
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
