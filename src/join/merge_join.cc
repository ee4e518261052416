#include "join/merge_join.h"

#include <algorithm>

#include "geom/vec3.h"

namespace liferaft::join {

bool WithinRadius(const query::QueryObject& qo,
                  const storage::CatalogObject& co, double* sep_arcsec) {
  return WithinRadius(qo, co.pos, sep_arcsec);
}

bool WithinRadius(const query::QueryObject& qo, const Vec3& pos,
                  double* sep_arcsec) {
  double sep = AngleBetween(qo.pos, pos) * kRadToDeg * kArcsecPerDeg;
  if (sep_arcsec != nullptr) *sep_arcsec = sep;
  return sep <= qo.radius_arcsec;
}

JoinCounters MergeCrossMatch(const storage::Bucket& bucket,
                             std::span<const query::WorkloadEntry> batch,
                             std::vector<query::Match>* out) {
  JoinCounters counters;
  const storage::ColumnarPage& page = bucket.page();
  const htm::IdRange bucket_range = bucket.range();
  const htm::HtmId* const ids = page.ids().data();
  const std::span<const double> ra = page.ra();
  const std::span<const double> dec = page.dec();
  const std::span<const float> mag = page.mag();
  const std::span<const float> color = page.color();
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.workload_objects;
      const std::vector<htm::IdRange>& ranges = qo.htm_ranges.ranges();
      if (ranges.empty()) continue;
      const htm::HtmId hull_lo = std::max(ranges.front().lo, bucket_range.lo);
      const htm::HtmId hull_hi = std::min(ranges.back().hi, bucket_range.hi);
      if (hull_lo > hull_hi) continue;
      // Ranges ascend and are disjoint, so every window lies inside the
      // hull's rows and after the previous window.
      auto [next, hull_end] = page.EqualRange(hull_lo, hull_hi);
      const RadiusTest test(qo);
      for (const htm::IdRange& r : ranges) {
        if (next == hull_end) break;
        if (!r.Overlaps(bucket_range)) continue;
        const htm::HtmId lo = std::max(r.lo, bucket_range.lo);
        const htm::HtmId hi = std::min(r.hi, bucket_range.hi);
        const size_t first = static_cast<size_t>(
            std::lower_bound(ids + next, ids + hull_end, lo) - ids);
        const size_t last = static_cast<size_t>(
            std::upper_bound(ids + first, ids + hull_end, hi) - ids);
        next = last;
        if (first == last) continue;
        counters.candidates_tested += last - first;
        const std::span<const Vec3> pos = page.Positions(first, last);
        for (size_t k = test.NextCandidate(pos, 0); k < pos.size();
             k = test.NextCandidate(pos, k + 1)) {
          double sep = 0.0;
          if (!WithinRadius(qo, pos[k], &sep)) continue;
          ++counters.spatial_matches;
          const size_t i = first + k;
          if (!entry.predicate.Matches(mag[i], color[i])) continue;
          ++counters.output_matches;
          if (out != nullptr) {
            out->push_back(query::Match{entry.query_id, qo.id,
                                        page.object_id(i), sep, ra[i],
                                        dec[i]});
          }
        }
      }
    }
  }
  return counters;
}

}  // namespace liferaft::join
