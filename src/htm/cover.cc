#include "htm/cover.h"

#include <algorithm>
#include <cmath>

namespace liferaft::htm {
namespace {

// Margins of the trigonometry-free shortcuts in EdgeIntersectsCap. Rounding
// in the quantities they compare stays below ~1e-15, so a case outside the
// margins is decided the same way by the exact formula; a case inside them
// takes the exact formula.
//
// Band around sin(r) in which sin(d) is compared exactly: relative to sin(r),
// plus an absolute floor for sub-arcsecond caps where the rounding of n·c
// exceeds the relative part.
constexpr double kBandRel = 1e-9;
constexpr double kBandAbs = 1e-14;
// How far, in center·v, an edge endpoint must lie outside the cap.
constexpr double kOutsideMargin = 1e-12;
// The shortcuts rely on sin being increasing and on q± lying within a
// quarter turn of p: radii from 1.5 rad up take the exact formula only.
constexpr double kShortcutMaxRad = 1.5;

// A cap's constants, computed once per cover instead of once per corner or
// edge.
struct CapTest {
  explicit CapTest(const Cap& cap)
      : center(cap.center),
        r_rad(cap.radius_deg * kDegToRad),
        cos_r(std::cos(r_rad)),
        inside_min(cos_r - 1e-15),  // Cap::Contains' test
        outside_max(cos_r - kOutsideMargin),
        shortcuts(r_rad >= 0.0 && r_rad < kShortcutMaxRad) {
    const double sin_r = std::sin(r_rad);
    const double band = kBandRel * sin_r + kBandAbs;
    sin2_far = (sin_r + band) * (sin_r + band);
    sin2_near = sin_r > band ? (sin_r - band) * (sin_r - band) : 0.0;
  }

  bool Contains(double center_dot_v) const {
    return center_dot_v >= inside_min;
  }

  Vec3 center;
  double r_rad;
  double cos_r;
  double inside_min;
  double outside_max;
  bool shortcuts;
  // sin²(d) above sin2_far: the edge's great circle surely misses the cap;
  // below sin2_near: it surely passes through the cap's interior.
  double sin2_far;
  double sin2_near;
};

// The exact edge test, for the cases the shortcuts leave open: the closest
// point p of the edge's great circle to the center, and the points q± where
// the circle crosses the cap boundary. `n` is a × b and `nn` = |n|² > 0.
bool EdgeIntersectsCapExact(const Vec3& a, const Vec3& b, Vec3 n, double nn,
                            const CapTest& k) {
  n = n * (1.0 / std::sqrt(nn));
  // Angular distance from the cap center to the edge's great circle.
  const double sin_d = std::abs(n.Dot(k.center));
  const double d = std::asin(std::clamp(sin_d, 0.0, 1.0));
  if (d > k.r_rad) return false;  // circle never gets close enough
  const Vec3 p = (k.center - n * n.Dot(k.center)).Normalized();
  // The circle's points inside the cap form an arc of half-length lambda
  // around p: cos(r) = cos(d) * cos(lambda).
  const double cos_d = std::cos(d);
  if (cos_d <= 0.0) return false;
  const double cos_lambda = std::clamp(k.cos_r / cos_d, -1.0, 1.0);
  const double lambda = std::acos(cos_lambda);
  const Vec3 axis = n.Cross(p);  // tangent direction along the circle at p
  auto on_arc = [&](const Vec3& q) {
    // q lies on the a->b arc iff it is on the inner side of both arc
    // endpoints' half-planes.
    return a.Cross(q).Dot(n) >= -1e-15 && q.Cross(b).Dot(n) >= -1e-15;
  };
  const Vec3 q_plus =
      (p * std::cos(lambda) + axis * std::sin(lambda)).Normalized();
  const Vec3 q_minus =
      (p * std::cos(lambda) - axis * std::sin(lambda)).Normalized();
  return on_arc(p) || on_arc(q_plus) || on_arc(q_minus);
}

// True if the great-circle arc from `a` to `b` intersects the boundary or
// interior of the cap, given n = a × b, s = n·center, and the endpoints'
// dot products with the center; both endpoints lie outside the cap. Clear
// cases are decided without trigonometry, the rest by the exact test.
bool EdgeIntersectsCap(const Vec3& a, const Vec3& b, const Vec3& n, double s,
                       double dot_a, double dot_b, const CapTest& k) {
  const double nn = n.Dot(n);
  if (nn == 0.0) return false;  // degenerate edge
  if (k.shortcuts) {
    // d, the angular distance from the center to the edge's great circle,
    // against r: sin²(d) = s² / |n|².
    if (s * s > k.sin2_far * nn) return false;  // circle never gets close
    // With d < r, the circle's points inside the cap form an arc around
    // its closest point p. If each endpoint's projection onto the circle,
    // v - n(n·v)/|n|², lies outside the cap by the margin, that arc holds
    // neither endpoint, and the edge reaches into it iff it holds p: an
    // edge holding a boundary point q± but not p would have an endpoint
    // between p and q±, inside the cap. p is then farther from both
    // endpoints than rounding can move it, so the signs of the two
    // orientation tests decide whether it lies between them. p is taken
    // unnormalized, as |n|²c - (n·c)n.
    if (s * s < k.sin2_near * nn &&
        (dot_a - k.outside_max) * nn < n.Dot(a) * s &&
        (dot_b - k.outside_max) * nn < n.Dot(b) * s) {
      const Vec3 p = k.center * nn - n * s;
      return a.Cross(p).Dot(n) >= 0.0 && p.Cross(b).Dot(n) >= 0.0;
    }
  }
  return EdgeIntersectsCapExact(a, b, n, nn, k);
}

Coverage Classify(const Trixel& t, const CapTest& k) {
  double dot[3];
  int inside = 0;
  for (int i = 0; i < 3; ++i) {
    dot[i] = k.center.Dot(t.v(i));
    if (k.Contains(dot[i])) ++inside;
  }
  if (inside == 3) return Coverage::kFull;  // caps < 90 deg are convex
  if (inside > 0) return Coverage::kPartial;
  // No corner inside. The cap may still sit entirely within the trixel
  // (Trixel::Contains on the center, over the edge normals the edge tests
  // reuse) or poke through an edge.
  Vec3 n[3];
  double s[3];
  bool center_inside = true;
  for (int i = 0; i < 3; ++i) {
    n[i] = t.v(i).Cross(t.v((i + 1) % 3));
    s[i] = n[i].Dot(k.center);
    center_inside = center_inside && s[i] >= -Trixel::kContainsSlack;
  }
  if (center_inside) return Coverage::kPartial;
  for (int i = 0; i < 3; ++i) {
    const int j = (i + 1) % 3;
    if (EdgeIntersectsCap(t.v(i), t.v(j), n[i], s[i], dot[i], dot[j], k)) {
      return Coverage::kPartial;
    }
  }
  return Coverage::kDisjoint;
}

// Depth-first in child order, so ranges reach `out` in ascending order and
// each Add appends or extends the last range.
void CoverRecurse(const Trixel& t, const CapTest& k, int t_level, int level,
                  size_t max_ranges, RangeSet* out) {
  Coverage c = Classify(t, k);
  if (c == Coverage::kDisjoint) return;
  if (c == Coverage::kFull || t_level == level ||
      (max_ranges != 0 && out->size() >= max_ranges)) {
    out->Add(RangeLo(t.id(), level), RangeHi(t.id(), level));
    return;
  }
  for (const Trixel& child : t.Children()) {
    CoverRecurse(child, k, t_level + 1, level, max_ranges, out);
  }
}

}  // namespace

Coverage ClassifyTrixel(const Trixel& t, const Cap& cap) {
  return Classify(t, CapTest(cap));
}

RangeSet CoverCap(const Cap& cap, int level, size_t max_ranges) {
  const CapTest k(cap);
  RangeSet out;
  for (int i = 0; i < kNumRoots; ++i) {
    CoverRecurse(Trixel::Root(i), k, 0, level, max_ranges, &out);
  }
  return out;
}

RangeSet CoverCircle(const SkyPoint& center, double radius_deg, int level,
                     size_t max_ranges) {
  return CoverCap(MakeCap(center, radius_deg), level, max_ranges);
}

}  // namespace liferaft::htm
