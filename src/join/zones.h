// The Zones algorithm (Gray, Nieto-Santisteban & Szalay 2006), the scan-
// based cross-match SkyQuery's batch proposals build on: declination is cut
// into horizontal zones; within a zone, objects sorted by right ascension
// are matched against a bounded RA window. Included as an independent
// matcher for cross-validation of the merge join and for the join-strategy
// ablation.

#ifndef LIFERAFT_JOIN_ZONES_H_
#define LIFERAFT_JOIN_ZONES_H_

#include <cstdint>
#include <vector>

#include "join/merge_join.h"
#include "query/workload.h"
#include "storage/bucket.h"

namespace liferaft::join {

/// Zone index over one bucket page: zones hold row indices sorted by the
/// ra column, so candidate generation walks the column spans in place and
/// no CatalogObject row is ever materialized. Build once per bucket batch,
/// reuse across all workload entries. Borrows the page.
class ZoneIndex {
 public:
  /// @param zone_height_deg zone height; must be >= the largest error
  ///        radius being matched for single-neighbor-zone correctness
  ///        (callers pass max radius, we still search all overlapped zones
  ///        so larger radii remain correct).
  ZoneIndex(const storage::ColumnarPage& page, double zone_height_deg);

  /// Row indices of all page objects within `radius_arcsec` of the query
  /// object.
  void Candidates(const query::QueryObject& qo,
                  std::vector<uint32_t>* out) const;

  size_t num_zones() const { return zones_.size(); }

 private:
  struct Zone {
    std::vector<uint32_t> by_ra;  // row indices sorted by ra column
  };

  int ZoneOf(double dec_deg) const;

  const storage::ColumnarPage* page_;
  double zone_height_deg_;
  std::vector<Zone> zones_;  // zone 0 starts at dec = -90
};

/// Cross-matches a workload batch against a bucket using the zones
/// algorithm, scanning the page's ra/dec/mag/color columns in place.
/// Result set is identical to MergeCrossMatch (order may differ).
JoinCounters ZonesCrossMatch(const storage::Bucket& bucket,
                             const std::vector<query::WorkloadEntry>& batch,
                             double zone_height_deg,
                             std::vector<query::Match>* out);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_ZONES_H_
