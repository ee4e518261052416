#include "htm/htm.h"

#include <cassert>

namespace liferaft::htm {

HtmId PointToId(const Vec3& p, int level) {
  assert(level >= 0 && level <= kMaxLevel);
  Vec3 u = p.Normalized();
  // Locate the root trixel. The roots tile the sphere, so at least one
  // must contain u; boundary points may match several and we take the
  // first for determinism.
  int root = -1;
  for (int i = 0; i < kNumRoots; ++i) {
    if (Trixel::Root(i).Contains(u)) {
      root = i;
      break;
    }
  }
  assert(root >= 0);
  Trixel t = Trixel::Root(root);
  for (int l = 0; l < level; ++l) {
    const std::array<Trixel, 4> children = t.Children();
    int c = 0;
    while (c < 3 && !children[static_cast<size_t>(c)].Contains(u)) ++c;
    t = children[static_cast<size_t>(c)];  // the middle child covers the rest
  }
  return t.id();
}

HtmId PointToId(const SkyPoint& p, int level) {
  return PointToId(SkyToUnitVector(p), level);
}

SkyPoint IdToCenter(HtmId id) {
  return UnitVectorToSky(Trixel::FromId(id).Centroid());
}

}  // namespace liferaft::htm
