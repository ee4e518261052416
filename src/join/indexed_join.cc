#include "join/indexed_join.h"

#include <algorithm>

namespace liferaft::join {

IndexedJoinCounters IndexedCrossMatch(
    const storage::BTreeIndex& index, const htm::IdRange& restrict_to,
    std::span<const query::WorkloadEntry> batch,
    std::vector<query::Match>* out) {
  IndexedJoinCounters counters;
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.join.workload_objects;
      ++counters.probes;
      const RadiusTest test(qo);
      for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
        if (!r.Overlaps(restrict_to)) continue;
        htm::HtmId lo = std::max(r.lo, restrict_to.lo);
        htm::HtmId hi = std::min(r.hi, restrict_to.hi);
        auto stats = index.RangeScan(
            lo, hi, [&](const storage::CatalogObject& co) {
              ++counters.join.candidates_tested;
              double sep = 0.0;
              if (!test(co, &sep)) return;
              ++counters.join.spatial_matches;
              if (!entry.predicate.Matches(co)) return;
              ++counters.join.output_matches;
              if (out != nullptr) {
                out->push_back(query::Match{entry.query_id, qo.id,
                                            co.object_id, sep, co.ra_deg,
                                            co.dec_deg});
              }
            });
        counters.leaves_visited += stats.leaves_visited;
      }
    }
  }
  return counters;
}

}  // namespace liferaft::join
