#include "query/query.h"

#include "htm/cover.h"

namespace liferaft::query {

QueryObject MakeQueryObject(uint64_t id, const SkyPoint& p,
                            double radius_arcsec) {
  QueryObject o;
  o.id = id;
  o.ra_deg = p.ra_deg;
  o.dec_deg = p.dec_deg;
  o.pos = SkyToUnitVector(p);
  o.radius_arcsec = radius_arcsec;
  // Conservative cover of the error circle, with the fragment count bounded
  // so an object ships at most a handful of ranges (the paper ships "a
  // range of HTM ID values" per object as its bounding box). Over-coverage
  // is harmless: the exact distance test in the refinement step decides
  // correctness.
  o.htm_ranges = htm::CoverCap(Cap{o.pos, radius_arcsec / kArcsecPerDeg},
                               htm::kObjectLevel, /*max_ranges=*/8);
  return o;
}

}  // namespace liferaft::query
