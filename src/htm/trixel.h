// Geometric realization of an HTM trixel: its three unit-vector corners,
// point-containment, subdivision, and a bounding cap for conservative
// intersection pre-filtering.

#ifndef LIFERAFT_HTM_TRIXEL_H_
#define LIFERAFT_HTM_TRIXEL_H_

#include <array>

#include "geom/spherical.h"
#include "geom/vec3.h"
#include "htm/htm_id.h"

namespace liferaft::htm {

/// A spherical triangle of the mesh. Corners are unit vectors in
/// counterclockwise order (seen from outside the sphere), which makes the
/// half-space containment test uniform across all trixels.
class Trixel {
 public:
  Trixel(HtmId id, const Vec3& v0, const Vec3& v1, const Vec3& v2)
      : id_(id), v_{v0, v1, v2} {}

  /// Root trixel i in [0,8) (IDs 8..15).
  static Trixel Root(int i);

  /// Realizes an arbitrary valid ID by descending from its root.
  static Trixel FromId(HtmId id);

  HtmId id() const { return id_; }
  const Vec3& v(int i) const { return v_[static_cast<size_t>(i)]; }

  /// The four children in child order, from one midpoint subdivision
  /// (three normalized edge midpoints shared by all four).
  std::array<Trixel, 4> Children() const;

  /// Child trixel c in [0,3]: `Children()[c]`.
  Trixel Child(int c) const;

  /// Slack of Contains' half-space tests, v(i)×v(i+1)·p >= -slack: points
  /// exactly on an edge must land in exactly one descent path, but FP error
  /// on midpoint normalization requires slack.
  static constexpr double kContainsSlack = 1e-12;

  /// True if unit vector `p` lies inside this trixel (boundary-inclusive
  /// within kContainsSlack).
  bool Contains(const Vec3& p) const;

  /// Smallest cap centered at the trixel centroid that encloses the trixel.
  Cap BoundingCap() const;

  /// Trixel centroid (normalized average of corners).
  Vec3 Centroid() const;

 private:
  HtmId id_;
  std::array<Vec3, 3> v_;
};

}  // namespace liferaft::htm

#endif  // LIFERAFT_HTM_TRIXEL_H_
