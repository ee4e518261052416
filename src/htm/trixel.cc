#include "htm/trixel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace liferaft::htm {
namespace {

// Octahedron vertices, following the original HTM construction
// (Kunszt et al., "The Indexing of the SDSS Science Archive").
const Vec3 kV0{0.0, 0.0, 1.0};    // north pole
const Vec3 kV1{1.0, 0.0, 0.0};
const Vec3 kV2{0.0, 1.0, 0.0};
const Vec3 kV3{-1.0, 0.0, 0.0};
const Vec3 kV4{0.0, -1.0, 0.0};
const Vec3 kV5{0.0, 0.0, -1.0};   // south pole

Vec3 Midpoint(const Vec3& a, const Vec3& b) {
  return (a + b).Normalized();
}

}  // namespace

Trixel Trixel::Root(int i) {
  assert(i >= 0 && i < kNumRoots);
  // S0..S3 are IDs 8..11, N0..N3 are IDs 12..15. Corner orderings match the
  // reference implementation so that child numbering (and therefore the
  // space-filling curve) is standard.
  switch (i) {
    case 0: return Trixel(8, kV1, kV5, kV2);   // S0
    case 1: return Trixel(9, kV2, kV5, kV3);   // S1
    case 2: return Trixel(10, kV3, kV5, kV4);  // S2
    case 3: return Trixel(11, kV4, kV5, kV1);  // S3
    case 4: return Trixel(12, kV1, kV0, kV4);  // N0
    case 5: return Trixel(13, kV4, kV0, kV3);  // N1
    case 6: return Trixel(14, kV3, kV0, kV2);  // N2
    default: return Trixel(15, kV2, kV0, kV1); // N3
  }
}

Trixel Trixel::FromId(HtmId id) {
  assert(IsValidId(id));
  int level = LevelOf(id);
  HtmId root = id >> (2 * level);
  Trixel t = Root(static_cast<int>(root - 8));
  for (int l = level - 1; l >= 0; --l) {
    int child = static_cast<int>((id >> (2 * l)) & 3);
    t = t.Child(child);
  }
  return t;
}

std::array<Trixel, 4> Trixel::Children() const {
  const Vec3 w0 = Midpoint(v_[1], v_[2]);
  const Vec3 w1 = Midpoint(v_[0], v_[2]);
  const Vec3 w2 = Midpoint(v_[0], v_[1]);
  return {Trixel(ChildOf(id_, 0), v_[0], w2, w1),
          Trixel(ChildOf(id_, 1), v_[1], w0, w2),
          Trixel(ChildOf(id_, 2), v_[2], w1, w0),
          Trixel(ChildOf(id_, 3), w0, w1, w2)};
}

Trixel Trixel::Child(int c) const {
  assert(c >= 0 && c <= 3);
  return Children()[static_cast<size_t>(c)];
}

bool Trixel::Contains(const Vec3& p) const {
  // p is inside iff it is on the inner side of all three edge planes.
  return v_[0].Cross(v_[1]).Dot(p) >= -kContainsSlack &&
         v_[1].Cross(v_[2]).Dot(p) >= -kContainsSlack &&
         v_[2].Cross(v_[0]).Dot(p) >= -kContainsSlack;
}

Vec3 Trixel::Centroid() const {
  return (v_[0] + v_[1] + v_[2]).Normalized();
}

Cap Trixel::BoundingCap() const {
  Vec3 c = Centroid();
  double min_dot = 1.0;
  for (const auto& v : v_) min_dot = std::min(min_dot, c.Dot(v));
  double radius_rad = std::acos(std::clamp(min_dot, -1.0, 1.0));
  // Small inflation so the cap is conservative under FP error.
  return Cap{c, radius_rad * kRadToDeg + 1e-9};
}

}  // namespace liferaft::htm
