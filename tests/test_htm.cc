// Tests for the HTM substrate: ID arithmetic, trixel geometry, point
// location, range sets, and cone covers. Cover conservativeness is the key
// system invariant: a cover must never miss a trixel containing a point of
// the cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <set>
#include <string>
#include <vector>

#include "geom/spherical.h"
#include "htm/cover.h"
#include "htm/htm.h"
#include "htm/htm_id.h"
#include "htm/range_set.h"
#include "htm/trixel.h"
#include "util/random.h"
#include "workload/trace_gen.h"

namespace liferaft::htm {
namespace {

// ----------------------------------------------------------------- HtmId --

TEST(HtmIdTest, RootsAreLevelZero) {
  for (HtmId id = 8; id <= 15; ++id) {
    EXPECT_TRUE(IsValidId(id));
    EXPECT_EQ(LevelOf(id), 0);
  }
}

TEST(HtmIdTest, InvalidIds) {
  for (HtmId id = 0; id < 8; ++id) EXPECT_FALSE(IsValidId(id));
  // 16..31 have odd "level width" (bit_width 5) -> invalid.
  EXPECT_FALSE(IsValidId(16));
  EXPECT_FALSE(IsValidId(31));
  EXPECT_TRUE(IsValidId(32));  // 8 << 2: first level-1 ID
}

TEST(HtmIdTest, ChildParentRoundTrip) {
  HtmId id = 11;
  for (int c = 0; c < 4; ++c) {
    HtmId child = ChildOf(id, c);
    EXPECT_EQ(LevelOf(child), 1);
    EXPECT_EQ(ParentOf(child), id);
  }
}

TEST(HtmIdTest, LevelRanges) {
  // Level-14 IDs span [8*4^14, 16*4^14), i.e. [2^31, 2^32).
  EXPECT_EQ(LevelMin(14), HtmId{1} << 31);
  EXPECT_EQ(LevelMax(14), (HtmId{1} << 32) - 1);
  EXPECT_EQ(LevelOf(LevelMin(14)), 14);
  EXPECT_EQ(LevelOf(LevelMax(14)), 14);
}

TEST(HtmIdTest, DescendantRangeCoversExactlyChildren) {
  HtmId id = 9;
  HtmId lo = RangeLo(id, 2);
  HtmId hi = RangeHi(id, 2);
  EXPECT_EQ(hi - lo + 1, 16u);  // 4^2 descendants
  for (int c1 = 0; c1 < 4; ++c1) {
    for (int c2 = 0; c2 < 4; ++c2) {
      HtmId leaf = ChildOf(ChildOf(id, c1), c2);
      EXPECT_GE(leaf, lo);
      EXPECT_LE(leaf, hi);
    }
  }
}

TEST(HtmIdTest, AncestorInvertsRangeLo) {
  HtmId id = 13;
  HtmId deep = RangeLo(id, 10);
  EXPECT_EQ(AncestorAt(deep, 0), id);
}

TEST(HtmIdTest, NameRoundTrip) {
  EXPECT_EQ(IdToName(8), "S0");
  EXPECT_EQ(IdToName(15), "N3");
  EXPECT_EQ(IdToName(ChildOf(ChildOf(12, 1), 3)), "N013");
  for (HtmId id : {HtmId{8}, HtmId{15}, ChildOf(ChildOf(10, 2), 0),
                   RangeLo(14, 6)}) {
    auto parsed = NameToId(IdToName(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
  }
}

TEST(HtmIdTest, NameParsingErrors) {
  EXPECT_FALSE(NameToId("").ok());
  EXPECT_FALSE(NameToId("X0").ok());
  EXPECT_FALSE(NameToId("N4").ok());
  EXPECT_FALSE(NameToId("N05").ok());
}

// ---------------------------------------------------------------- Trixel --

TEST(TrixelTest, RootsTileTheSphere) {
  // Every random point must be inside at least one root trixel.
  Rng rng(47);
  for (int i = 0; i < 5000; ++i) {
    Vec3 p = Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized();
    int hits = 0;
    for (int r = 0; r < kNumRoots; ++r) {
      if (Trixel::Root(r).Contains(p)) ++hits;
    }
    EXPECT_GE(hits, 1);
  }
}

TEST(TrixelTest, ChildrenTileParent) {
  Rng rng(53);
  Trixel parent = Trixel::Root(5);
  for (int i = 0; i < 2000; ++i) {
    Vec3 p = Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized();
    if (!parent.Contains(p)) continue;
    int hits = 0;
    for (int c = 0; c < 4; ++c) {
      if (parent.Child(c).Contains(p)) ++hits;
    }
    EXPECT_GE(hits, 1) << "point in parent missed by all children";
  }
}

TEST(TrixelTest, ChildrenStayInsideParentBoundingCap) {
  Trixel parent = Trixel::Root(2);
  Cap bound = parent.BoundingCap();
  for (int c = 0; c < 4; ++c) {
    Trixel child = parent.Child(c);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(bound.Contains(child.v(i)));
    }
  }
}

TEST(TrixelTest, FromIdMatchesDescent) {
  Trixel t = Trixel::Root(6).Child(2).Child(1).Child(3);
  Trixel u = Trixel::FromId(t.id());
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR((t.v(i) - u.v(i)).Norm(), 0.0, 1e-15);
  }
}

TEST(TrixelTest, BoundingCapContainsWholeTrixel) {
  Rng rng(59);
  Trixel t = Trixel::FromId(RangeLo(9, 3) + 37);
  Cap cap = t.BoundingCap();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cap.Contains(t.v(i)));
  // Random interior points (blend of corners) must also be inside.
  for (int i = 0; i < 500; ++i) {
    double a = rng.UniformDouble(), b = rng.UniformDouble(0, 1 - a);
    Vec3 p = (t.v(0) * a + t.v(1) * b + t.v(2) * (1 - a - b)).Normalized();
    EXPECT_TRUE(cap.Contains(p));
  }
}

// --------------------------------------------------------- Point location --

class PointToIdTest : public ::testing::TestWithParam<int> {};

TEST_P(PointToIdTest, LookupLandsInContainingTrixel) {
  const int level = GetParam();
  Rng rng(61 + level);
  for (int i = 0; i < 1000; ++i) {
    Vec3 p = Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized();
    HtmId id = PointToId(p, level);
    EXPECT_TRUE(IsValidId(id));
    EXPECT_EQ(LevelOf(id), level);
    EXPECT_TRUE(Trixel::FromId(id).Contains(p))
        << "point not inside its assigned trixel at level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, PointToIdTest,
                         ::testing::Values(0, 1, 3, 6, 10, 14));

TEST(PointToIdTest, DeterministicOnBoundaries) {
  // Octahedron vertices sit on many trixel boundaries; lookup must still
  // return a single consistent answer.
  for (const Vec3& v : {Vec3{0, 0, 1}, Vec3{1, 0, 0}, Vec3{0, -1, 0}}) {
    HtmId a = PointToId(v, 8);
    HtmId b = PointToId(v, 8);
    EXPECT_EQ(a, b);
  }
}

TEST(PointToIdTest, Level14FitsIn32Bits) {
  Rng rng(67);
  for (int i = 0; i < 200; ++i) {
    Vec3 p = Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized();
    HtmId id = PointToId(p, kObjectLevel);
    EXPECT_LT(id, HtmId{1} << 32);
    EXPECT_GE(id, HtmId{1} << 31);
  }
}

TEST(PointToIdTest, SpatialLocalityAlongCurve) {
  // Nearby points should mostly share a deep ancestor: the space-filling
  // property the bucket partitioning depends on.
  Rng rng(71);
  int shared_ancestor = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360), rng.UniformDouble(-80, 80)};
    SkyPoint q{p.ra_deg + 0.001, p.dec_deg + 0.001};
    HtmId a = PointToId(p, 14), b = PointToId(q, 14);
    if (AncestorAt(a, 8) == AncestorAt(b, 8)) ++shared_ancestor;
  }
  // Not all pairs share (boundary effects), but the vast majority must.
  EXPECT_GT(shared_ancestor, trials * 0.9);
}

TEST(IdToCenterTest, CenterMapsBackToSameTrixel) {
  Rng rng(73);
  for (int i = 0; i < 300; ++i) {
    Vec3 p = Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized();
    HtmId id = PointToId(p, 10);
    SkyPoint c = IdToCenter(id);
    EXPECT_EQ(PointToId(c, 10), id);
  }
}

// -------------------------------------------------------------- RangeSet --

TEST(RangeSetTest, MergesOverlappingAndAdjacent) {
  RangeSet s;
  s.Add(10, 20);
  s.Add(15, 30);   // overlaps
  s.Add(31, 40);   // adjacent
  s.Add(100, 110); // separate
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.ranges()[0], (IdRange{10, 40}));
  EXPECT_EQ(s.ranges()[1], (IdRange{100, 110}));
  EXPECT_EQ(s.Count(), 31u + 11u);
}

TEST(RangeSetTest, ContainsAndOverlaps) {
  RangeSet s;
  s.Add(10, 20);
  s.Add(40, 50);
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
  EXPECT_FALSE(s.Contains(21));
  EXPECT_FALSE(s.Contains(9));
  EXPECT_TRUE(s.Overlaps(18, 45));
  EXPECT_TRUE(s.Overlaps(0, 10));
  EXPECT_FALSE(s.Overlaps(21, 39));
  EXPECT_FALSE(s.Overlaps(51, 60));
}

TEST(RangeSetTest, IntersectBasics) {
  RangeSet a, b;
  a.Add(0, 100);
  b.Add(50, 150);
  auto c = a.Intersect(b);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.ranges()[0], (IdRange{50, 100}));
}

TEST(RangeSetTest, IntersectMultipleFragments) {
  RangeSet a, b;
  a.Add(0, 10);
  a.Add(20, 30);
  a.Add(40, 50);
  b.Add(5, 45);
  auto c = a.Intersect(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ranges()[0], (IdRange{5, 10}));
  EXPECT_EQ(c.ranges()[1], (IdRange{20, 30}));
  EXPECT_EQ(c.ranges()[2], (IdRange{40, 45}));
}

TEST(RangeSetTest, EmptyIntersect) {
  RangeSet a, b;
  a.Add(0, 10);
  EXPECT_TRUE(a.Intersect(b).empty());
  EXPECT_TRUE(b.Intersect(a).empty());
}

TEST(RangeSetTest, AscendingAddsMatchNormalizedOutOfOrderAdds) {
  // Ranges added in ascending order of `lo` are merged on the spot; the
  // result must equal what sorting and merging the same ranges gives.
  const HtmId kMax = UINT64_MAX;
  std::vector<std::vector<IdRange>> cases = {
      {{10, 20}, {21, 30}},                      // adjacent
      {{10, 20}, {22, 30}},                      // one-id gap
      {{5, 10}, {5, 7}},                         // same lo, nested
      {{5, 10}, {7, 20}},                        // overlapping
      {{0, 0}, {1, 1}, {3, 3}},                  // from zero
      {{kMax - 2, kMax}, {kMax, kMax}},          // at the top of the range
      {{kMax - 9, kMax - 5}, {kMax - 4, kMax}},  // adjacent up to the top
      {{kMax - 9, kMax - 5}, {kMax - 3, kMax}},
      {{0, kMax}, {kMax, kMax}},
  };
  Rng rng(83);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<IdRange> ranges;
    HtmId lo = trial % 3 == 0 ? kMax - 200 : rng.UniformU64(1000);
    for (int i = 0; i < 12; ++i) {
      HtmId hi = std::min<HtmId>(kMax, lo + rng.UniformU64(6));
      ranges.push_back({lo, hi});
      if (hi == kMax) break;
      // Next start: inside the range, adjacent to it, or past a gap.
      switch (rng.UniformU64(3)) {
        case 0: lo += rng.UniformU64(hi - lo + 1); break;
        case 1: lo = hi + 1; break;
        default: lo = std::min<HtmId>(kMax, hi + 2 + rng.UniformU64(3));
      }
    }
    cases.push_back(std::move(ranges));
  }
  for (const auto& ascending : cases) {
    RangeSet in_order;
    for (const IdRange& r : ascending) in_order.Add(r);
    std::vector<IdRange> shuffled = ascending;
    std::reverse(shuffled.begin(), shuffled.end());
    RangeSet out_of_order;
    for (const IdRange& r : shuffled) out_of_order.Add(r);
    EXPECT_EQ(in_order.ranges(), out_of_order.ranges())
        << in_order.ToString() << " vs " << out_of_order.ToString();
    EXPECT_EQ(in_order.ranges(), RangeSet(ascending).ranges());
  }
}

// ----------------------------------------------------------------- Cover --

class CoverTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverTest, CoverIsConservative) {
  // Any point inside the cap must land in a covered trixel.
  const double radius = GetParam();
  Rng rng(79);
  const int level = 8;
  SkyPoint center{33.0, 21.0};
  RangeSet cover = CoverCircle(center, radius, level);
  EXPECT_FALSE(cover.empty());
  for (int i = 0; i < 2000; ++i) {
    // Rejection-sample points inside the cap.
    SkyPoint p{center.ra_deg + rng.UniformDouble(-2 * radius, 2 * radius),
               center.dec_deg + rng.UniformDouble(-2 * radius, 2 * radius)};
    if (AngularSeparationDeg(center, p) > radius) continue;
    HtmId id = PointToId(p, level);
    EXPECT_TRUE(cover.Contains(id))
        << "point inside cap not covered, radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, CoverTest,
                         ::testing::Values(0.01, 0.1, 1.0, 5.0, 20.0));

TEST(CoverTest, CoverIsTight) {
  // The cover should not be wildly larger than the cap: compare covered
  // area (trixel count / total trixels) against cap area.
  const int level = 10;
  const double radius = 2.0;
  RangeSet cover = CoverCircle({100, -40}, radius, level);
  double total_trixels =
      static_cast<double>(LevelMax(level) - LevelMin(level) + 1);
  double covered_frac = static_cast<double>(cover.Count()) / total_trixels;
  double cap_frac = (1 - std::cos(radius * kDegToRad)) / 2.0;
  EXPECT_LT(covered_frac, cap_frac * 4.0)
      << "cover more than 4x the cap area";
}

TEST(CoverTest, TinyCapCoversFewTrixels) {
  // A 1-arcsecond error circle at level 14 should touch only a handful of
  // trixels (level-14 trixels are ~10 arcsec across).
  RangeSet cover = CoverCircle({210.0, 5.0}, 1.0 / 3600.0, 14);
  EXPECT_GE(cover.Count(), 1u);
  EXPECT_LE(cover.Count(), 16u);
}

TEST(CoverTest, FullSkyCapCoversEverything) {
  RangeSet cover = CoverCap(Cap{{0, 0, 1}, 180.0}, 4);
  EXPECT_EQ(cover.Count(), LevelMax(4) - LevelMin(4) + 1);
}

TEST(CoverTest, MaxRangesBoundsOutputButStaysConservative) {
  SkyPoint center{33.0, 21.0};
  const int level = 12;
  RangeSet bounded = CoverCircle(center, 3.0, level, 8);
  RangeSet full = CoverCircle(center, 3.0, level);
  // Bounded cover must be a superset of the exact cover.
  for (const auto& r : full.ranges()) {
    for (HtmId id = r.lo; id <= r.hi && id - r.lo < 100; ++id) {
      EXPECT_TRUE(bounded.Contains(id));
    }
  }
}

TEST(ClassifyTrixelTest, FullWhenCapHuge) {
  Trixel t = Trixel::Root(0).Child(1);
  Cap cap{t.Centroid(), 170.0};
  EXPECT_EQ(ClassifyTrixel(t, cap), Coverage::kFull);
}

TEST(ClassifyTrixelTest, DisjointWhenFarAway) {
  Trixel t = Trixel::FromId(PointToId(SkyPoint{0, 80}, 6));
  Cap cap = MakeCap({180, -80}, 1.0);
  EXPECT_EQ(ClassifyTrixel(t, cap), Coverage::kDisjoint);
}

TEST(ClassifyTrixelTest, PartialWhenCapInsideTrixel) {
  Trixel t = Trixel::Root(3);
  Cap cap{t.Centroid(), 0.5};
  EXPECT_EQ(ClassifyTrixel(t, cap), Coverage::kPartial);
}

// ------------------------------------------------------ Cover reference --
//
// The cover without shortcuts: every edge test through asin/acos,
// Cap::Contains per corner, one Child() call per child, and the range
// budget checked against a freshly sorted and merged copy. The library's
// cover must return the same ranges for every cap, level and budget, and
// its ClassifyTrixel the same answer at every node.
namespace reference {

bool EdgeIntersectsCap(const Vec3& a, const Vec3& b, const Cap& cap) {
  const double r_rad = cap.radius_deg * kDegToRad;
  Vec3 n = a.Cross(b);
  double n_norm = n.Norm();
  if (n_norm == 0.0) return false;
  n = n * (1.0 / n_norm);
  double sin_d = std::abs(n.Dot(cap.center));
  double d = std::asin(std::clamp(sin_d, 0.0, 1.0));
  if (d > r_rad) return false;
  Vec3 p = (cap.center - n * n.Dot(cap.center)).Normalized();
  double cos_d = std::cos(d);
  if (cos_d <= 0.0) return false;
  double cos_lambda = std::clamp(std::cos(r_rad) / cos_d, -1.0, 1.0);
  double lambda = std::acos(cos_lambda);
  Vec3 axis = n.Cross(p);
  auto on_arc = [&](const Vec3& q) {
    return a.Cross(q).Dot(n) >= -1e-15 && q.Cross(b).Dot(n) >= -1e-15;
  };
  Vec3 q_plus = (p * std::cos(lambda) + axis * std::sin(lambda)).Normalized();
  Vec3 q_minus = (p * std::cos(lambda) - axis * std::sin(lambda)).Normalized();
  return on_arc(p) || on_arc(q_plus) || on_arc(q_minus);
}

Coverage ClassifyTrixel(const Trixel& t, const Cap& cap) {
  int inside = 0;
  for (int i = 0; i < 3; ++i) {
    if (cap.Contains(t.v(i))) ++inside;
  }
  if (inside == 3) return Coverage::kFull;
  if (inside > 0) return Coverage::kPartial;
  if (t.Contains(cap.center)) return Coverage::kPartial;
  for (int i = 0; i < 3; ++i) {
    if (EdgeIntersectsCap(t.v(i), t.v((i + 1) % 3), cap)) {
      return Coverage::kPartial;
    }
  }
  return Coverage::kDisjoint;
}

void CoverRecurse(const Trixel& t, const Cap& cap, int level,
                  size_t max_ranges, std::vector<IdRange>* out) {
  Coverage c = reference::ClassifyTrixel(t, cap);
  if (c == Coverage::kDisjoint) return;
  int t_level = LevelOf(t.id());
  if (c == Coverage::kFull || t_level == level ||
      (max_ranges != 0 && RangeSet(*out).size() >= max_ranges)) {
    out->push_back({RangeLo(t.id(), level), RangeHi(t.id(), level)});
    return;
  }
  for (int i = 0; i < 4; ++i) {
    CoverRecurse(t.Child(i), cap, level, max_ranges, out);
  }
}

std::vector<IdRange> CoverCap(const Cap& cap, int level, size_t max_ranges) {
  std::vector<IdRange> out;
  for (int i = 0; i < kNumRoots; ++i) {
    CoverRecurse(Trixel::Root(i), cap, level, max_ranges, &out);
  }
  return RangeSet(std::move(out)).ranges();
}

HtmId PointToId(const Vec3& p, int level) {
  Vec3 u = p.Normalized();
  int root = 0;
  while (!Trixel::Root(root).Contains(u)) ++root;
  Trixel t = Trixel::Root(root);
  for (int l = 0; l < level; ++l) {
    bool found = false;
    for (int c = 0; c < 3 && !found; ++c) {
      if (t.Child(c).Contains(u)) {
        t = t.Child(c);
        found = true;
      }
    }
    if (!found) t = t.Child(3);
  }
  return t.id();
}

}  // namespace reference

std::string CapString(const Cap& cap, int level, size_t max_ranges) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "cap {%.17g, %.17g, %.17g} r=%.17g deg "
                "level=%d budget=%zu", cap.center.x, cap.center.y,
                cap.center.z, cap.radius_deg, level, max_ranges);
  return buf;
}

// Compares the library's and the reference's classification at every node
// the reference's unbudgeted walk visits down to `level`, stopping after
// `max_nodes`. Returns the number of nodes that disagree.
int ClassifyMismatches(const Trixel& t, const Cap& cap, int level,
                       int* max_nodes) {
  if (--*max_nodes < 0) return 0;
  Coverage want = reference::ClassifyTrixel(t, cap);
  int mismatches = ClassifyTrixel(t, cap) == want ? 0 : 1;
  if (want == Coverage::kPartial && LevelOf(t.id()) < level) {
    for (int c = 0; c < 4; ++c) {
      mismatches += ClassifyMismatches(t.Child(c), cap, level, max_nodes);
    }
  }
  return mismatches;
}

// Checks CoverCap against the reference for one cap, and every visited
// node's classification when `check_nodes` is set.
void ExpectSameCover(const Cap& cap, int level, size_t max_ranges,
                     bool check_nodes, int* failures) {
  const std::vector<IdRange> want = reference::CoverCap(cap, level, max_ranges);
  const RangeSet got = CoverCap(cap, level, max_ranges);
  if (got.ranges() != want && ++*failures <= 5) {
    ADD_FAILURE() << "cover differs from the reference for "
                  << CapString(cap, level, max_ranges) << ": got "
                  << got.ToString() << ", want "
                  << RangeSet(want).ToString();
  }
  if (!check_nodes) return;
  for (int i = 0; i < kNumRoots; ++i) {
    int max_nodes = 2000;
    int bad = ClassifyMismatches(Trixel::Root(i), cap, level, &max_nodes);
    if (bad > 0 && ++*failures <= 5) {
      ADD_FAILURE() << bad << " nodes classified differently for "
                    << CapString(cap, level, 0);
    }
  }
}

Vec3 RandomUnit(Rng* rng) {
  return Vec3{rng->Normal(), rng->Normal(), rng->Normal()}.Normalized();
}

// A unit vector perpendicular to unit vector `v`.
Vec3 RandomPerpendicular(const Vec3& v, Rng* rng) {
  Vec3 u = RandomUnit(rng);
  return (u - v * v.Dot(u)).Normalized();
}

// Radius log-uniform from 0.1 arcsec to 180 degrees.
double RandomRadiusDeg(Rng* rng) {
  const double lo = std::log(0.1 / kArcsecPerDeg);
  return std::exp(rng->UniformDouble(lo, std::log(180.0)));
}

// Center kinds of the random caps: anywhere, or on the octahedron's
// vertices, on the root trixels' edges, or on corners of deeper trixels.
Vec3 RandomCenter(int kind, Rng* rng) {
  static const Vec3 kVertices[] = {{0, 0, 1},  {0, 0, -1}, {1, 0, 0},
                                   {-1, 0, 0}, {0, 1, 0},  {0, -1, 0}};
  switch (kind) {
    case 0: return kVertices[rng->UniformU64(6)];
    case 1: {  // a root edge: the equator or a meridian of x = 0 or y = 0
      double t = rng->UniformDouble(0, 2 * std::numbers::pi);
      switch (rng->UniformU64(3)) {
        case 0: return {std::cos(t), std::sin(t), 0};
        case 1: return {std::cos(t), 0, std::sin(t)};
        default: return {0, std::cos(t), std::sin(t)};
      }
    }
    case 2: {
      int level = static_cast<int>(rng->UniformU64(15));
      Trixel t = Trixel::FromId(PointToId(RandomUnit(rng), level));
      return t.v(static_cast<int>(rng->UniformU64(3)));
    }
    default: return RandomUnit(rng);
  }
}

class CoverEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverEquivalenceTest, RandomCapsMatchReference) {
  // 4 center kinds x 27,000 caps: radii 0.1 arcsec to 180 degrees (both
  // sides of the 1.5 rad limit of the shortcuts), levels 0-20, budgets
  // 0/1/8/64. Unbudgeted covers keep the level low enough that the
  // reference stays cheap.
  const int kind = GetParam();
  Rng rng(89 + kind);
  int failures = 0;
  for (int i = 0; i < 27'000; ++i) {
    Cap cap{RandomCenter(kind, &rng), RandomRadiusDeg(&rng)};
    if (i % 10 == 0) {
      cap.radius_deg = (1.5 + rng.UniformDouble(-1e-3, 1e-3)) * kRadToDeg;
    }
    static const size_t kBudgets[] = {0, 1, 8, 64};
    const size_t budget = kBudgets[i % 4];
    int level = static_cast<int>(rng.UniformU64(21));
    if (budget == 0) {
      const double r_rad = cap.radius_deg * kDegToRad;
      while (level > 0 && r_rad * std::ldexp(1.0, level) > 64) --level;
    }
    ExpectSameCover(cap, level, budget, /*check_nodes=*/i % 16 == 0,
                    &failures);
  }
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(CenterKinds, CoverEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3));

// A cap whose boundary passes through corner `a`'s projection onto the
// computed great circle of edge a->b, from outside the edge beyond `a`. On
// deep trixels the computed circle misses `a` by up to ~1e-10, so `a` itself
// lies outside the cap by more than the shortcut's margin while its
// projection, which is what the edge test sees, sits on the boundary.
Cap CapThroughProjectedCorner(const Vec3& a, const Vec3& b, Rng* rng) {
  const Vec3 n = a.Cross(b).Normalized();
  const Vec3 a_proj = (a - n * n.Dot(a)).Normalized();
  const Vec3 away = a_proj.Cross(n);  // along the circle, away from b
  const double r = rng->UniformDouble(5.0, 80.0) * kDegToRad;
  const double psi = rng->UniformDouble(0.2, 1.4);
  // Off the circle on the side that moves `a` out of the cap.
  const double side = n.Dot(a) > 0 ? -1.0 : 1.0;
  const Vec3 w = away * std::cos(psi) + n * (side * std::sin(psi));
  return Cap{(a_proj * std::cos(r) + w * std::sin(r)).Normalized(),
             r * kRadToDeg};
}

TEST(CoverEquivalenceTest, BoundaryGrazingCapsMatchReference) {
  // Caps whose boundary passes within 1e-12 (or exactly, up to rounding)
  // of a trixel corner or of a corner's projection onto an edge's circle,
  // or touches a trixel edge's great circle at a point of the edge. These
  // land inside the shortcuts' margins, where only the exact formula
  // decides.
  Rng rng(97);
  const double kOffsets[] = {0, 0, 0, 1e-16, -1e-16, 1e-15, -1e-15,
                             1e-13, -1e-13, 1e-12, -1e-12};
  int failures = 0;
  for (int i = 0; i < 12'000; ++i) {
    const int t_level = i % 3 == 2 ? 17 + static_cast<int>(rng.UniformU64(4))
                                   : static_cast<int>(rng.UniformU64(17));
    const Trixel t = Trixel::FromId(PointToId(RandomUnit(&rng), t_level));
    double r_rad = RandomRadiusDeg(&rng) * kDegToRad;
    if (i % 7 == 0) r_rad = 1.5 + rng.UniformDouble(-1e-3, 1e-3);
    r_rad = std::min(r_rad, 3.1);
    const double off = kOffsets[rng.UniformU64(std::size(kOffsets))];
    const int a = static_cast<int>(rng.UniformU64(3));
    Vec3 center;
    if (i % 3 == 2) {
      const Cap c = CapThroughProjectedCorner(t.v(a), t.v((a + 1) % 3), &rng);
      center = c.center;
      r_rad = c.radius_deg * kDegToRad;
    } else if (i % 3 == 0) {
      // Boundary through corner a, approached from any direction.
      const Vec3& v = t.v(a);
      const Vec3 u = RandomPerpendicular(v, &rng);
      center = v * std::cos(r_rad + off) + u * std::sin(r_rad + off);
    } else {
      // Tangent to edge a's great circle at a point m of the edge
      // (possibly an endpoint), from either side.
      const Vec3& va = t.v(a);
      const Vec3& vb = t.v((a + 1) % 3);
      const double s = rng.UniformU64(4) == 0
                           ? static_cast<double>(rng.UniformU64(2))
                           : rng.UniformDouble();
      const Vec3 m = (va * (1 - s) + vb * s).Normalized();
      const Vec3 n = va.Cross(vb).Normalized() *
                     (rng.UniformU64(2) == 0 ? 1.0 : -1.0);
      center = m * std::cos(r_rad + off) + n * std::sin(r_rad + off);
    }
    const Cap cap{center.Normalized(), r_rad * kRadToDeg};
    // The grazed trixel itself, node by node, and covers reaching below it.
    if (ClassifyTrixel(t, cap) != reference::ClassifyTrixel(t, cap) &&
        ++failures <= 5) {
      ADD_FAILURE() << "trixel " << IdToName(t.id())
                    << " classified differently for "
                    << CapString(cap, t_level, 0);
    }
    static const size_t kBudgets[] = {1, 8, 64};
    const int level = std::min(20, t_level + static_cast<int>(
                                                 rng.UniformU64(5)));
    ExpectSameCover(cap, level, kBudgets[(i / 3) % 3],
                    /*check_nodes=*/false, &failures);
    if (r_rad * std::ldexp(1.0, level) <= 64) {
      ExpectSameCover(cap, level, 0, /*check_nodes=*/i % 8 == 1, &failures);
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(CoverEquivalenceTest, HotJoinShapedTraceMatchesReference) {
  // Every object of a trace shaped like bench_e2e's hot-join workload
  // (uniform sky, up to 200 objects per query, 300 arcsec circles), as
  // MakeQueryObject covers it, against the reference cover of its sky
  // position.
  workload::TraceConfig config =
      workload::SkewedTracePreset(workload::SkewLevel::kUniform, 150, 5);
  config.max_objects_per_query = 200;
  config.match_radius_arcsec = 300.0;
  auto trace = workload::GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  size_t objects = 0;
  int failures = 0;
  for (const auto& q : *trace) {
    for (const auto& o : q.objects) {
      ++objects;
      const Cap cap = MakeCap(o.sky(), o.radius_arcsec / kArcsecPerDeg);
      const auto want = reference::CoverCap(cap, kObjectLevel, 8);
      if (o.htm_ranges.ranges() != want && ++failures <= 5) {
        ADD_FAILURE() << "object " << o.id << " of query " << q.id << ": "
                      << o.htm_ranges.ToString() << " vs "
                      << RangeSet(want).ToString();
      }
    }
  }
  EXPECT_GT(objects, 10'000u);
  EXPECT_EQ(failures, 0);
}

TEST(PointToIdTest, MatchesChildByChildDescent) {
  // Random points plus trixel corners and edge midpoints, which sit on
  // child boundaries: the first containing child must still win.
  Rng rng(101);
  for (int i = 0; i < 20'000; ++i) {
    Vec3 p = RandomUnit(&rng);
    if (i % 2 == 1) {
      Trixel t = Trixel::FromId(
          PointToId(p, static_cast<int>(rng.UniformU64(15))));
      Trixel child = t.Child(static_cast<int>(rng.UniformU64(4)));
      p = child.v(static_cast<int>(rng.UniformU64(3)));
    }
    for (int level : {0, 6, 14, 20}) {
      ASSERT_EQ(PointToId(p, level), reference::PointToId(p, level))
          << "point {" << p.x << ", " << p.y << ", " << p.z << "} level "
          << level;
    }
  }
}

}  // namespace
}  // namespace liferaft::htm
