// Indexed cross-match: probes the archive's B+tree spatial index once per
// workload object instead of scanning the bucket. This is the join path the
// hybrid strategy selects when a workload queue is small relative to its
// bucket (paper §3.4), and the only path SkyQuery's legacy execution uses.

#ifndef LIFERAFT_JOIN_INDEXED_JOIN_H_
#define LIFERAFT_JOIN_INDEXED_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "htm/range_set.h"
#include "join/merge_join.h"
#include "query/workload.h"
#include "storage/btree.h"

namespace liferaft::join {

/// Instrumentation for an indexed join.
struct IndexedJoinCounters {
  JoinCounters join;
  /// Index probes performed (one per workload object; each is a random
  /// I/O in the cost model).
  uint64_t probes = 0;
  /// Leaf pages touched across all probes.
  uint64_t leaves_visited = 0;

  /// Merges another slice's counters (keep in sync with the fields above —
  /// the parallel path aggregates per-slice counters through this).
  IndexedJoinCounters& operator+=(const IndexedJoinCounters& o) {
    join += o.join;
    probes += o.probes;
    leaves_visited += o.leaves_visited;
    return *this;
  }
};

/// Cross-matches a workload batch via index probes, restricted to the
/// bucket's HTM range `restrict_to` (sub-queries are per-bucket even on the
/// indexed path, so a query object overlapping two buckets is matched
/// exactly once per bucket). Appends matches to `*out` (skipped when
/// null). Generic over the output vector for the same reason as
/// MergeCrossMatchInto: parallel slices append into per-worker
/// arena-backed vectors.
template <typename MatchVec>
IndexedJoinCounters IndexedCrossMatchInto(
    const storage::BTreeIndex& index, const htm::IdRange& restrict_to,
    std::span<const query::WorkloadEntry> batch, MatchVec* out) {
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

/// Columnar form: probes one page's sorted HTM-id column — the per-page
/// mini-index — with the same per-object probe accounting, scanning the
/// position/attribute columns zero-copy. No B+tree leaves exist on this
/// path, so leaves_visited stays 0; candidate order and match bytes are
/// identical to the B+tree probe restricted to the same bucket.
template <typename MatchVec>
IndexedJoinCounters IndexedCrossMatchInto(
    const storage::ColumnarBucketView& view, const htm::IdRange& restrict_to,
    std::span<const query::WorkloadEntry> batch, MatchVec* out) {
  IndexedJoinCounters counters;
  const std::span<const Vec3> pos = view.positions();
  const std::span<const double> ra = view.ra();
  const std::span<const double> dec = view.dec();
  const std::span<const float> mag = view.mag();
  const std::span<const float> color = view.color();
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.join.workload_objects;
      ++counters.probes;
      const RadiusTest test(qo);
      for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
        if (!r.Overlaps(restrict_to)) continue;
        htm::HtmId lo = std::max(r.lo, restrict_to.lo);
        htm::HtmId hi = std::min(r.hi, restrict_to.hi);
        const auto [first, last] = view.EqualRange(lo, hi);
        for (size_t i = first; i < last; ++i) {
          ++counters.join.candidates_tested;
          double sep = 0.0;
          if (!test(pos[i], &sep)) continue;
          ++counters.join.spatial_matches;
          if (!entry.predicate.Matches(mag[i], color[i])) continue;
          ++counters.join.output_matches;
          if (out != nullptr) {
            out->push_back(query::Match{entry.query_id, qo.id,
                                        view.object_id(i), sep, ra[i],
                                        dec[i]});
          }
        }
      }
    }
  }
  return counters;
}

/// The std::vector instantiation of IndexedCrossMatchInto.
IndexedJoinCounters IndexedCrossMatch(
    const storage::BTreeIndex& index, const htm::IdRange& restrict_to,
    std::span<const query::WorkloadEntry> batch,
    std::vector<query::Match>* out);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_INDEXED_JOIN_H_
