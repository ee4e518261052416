// Non-indexed cross-match of one bucket against its workload queue
// (paper §3.1): objects on both sides are sorted by HTM ID; the join is a
// simultaneous sweep that, for each workload object's bounding range, visits
// the bucket objects inside the range and applies the two-stage radius test
// (a dot-product bound, then the exact angular distance). Query-specific
// predicates are applied to the output tuples that succeed in the spatial
// join.

#ifndef LIFERAFT_JOIN_MERGE_JOIN_H_
#define LIFERAFT_JOIN_MERGE_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "query/workload.h"
#include "storage/bucket.h"

namespace liferaft::join {

/// Per-join instrumentation.
struct JoinCounters {
  /// Workload objects processed (the |W| the cost model charges T_m for).
  uint64_t workload_objects = 0;
  /// Candidates in the HTM window (prefiltered or exact-tested).
  uint64_t candidates_tested = 0;
  /// Pairs within the error radius (before predicates).
  uint64_t spatial_matches = 0;
  /// Pairs surviving predicates (reported matches).
  uint64_t output_matches = 0;

  /// Merges another slice's counters (keep in sync with the fields above —
  /// the parallel path aggregates per-slice counters through this).
  JoinCounters& operator+=(const JoinCounters& o) {
    workload_objects += o.workload_objects;
    candidates_tested += o.candidates_tested;
    spatial_matches += o.spatial_matches;
    output_matches += o.output_matches;
    return *this;
  }
};

/// Exact refinement test (stage two of RadiusTest below): true iff the
/// archive object lies within the query object's error radius.
bool WithinRadius(const query::QueryObject& qo,
                  const storage::CatalogObject& co, double* sep_arcsec);

/// Position-only form for the columnar scan path: same formula, same
/// bits — the Vec3 comes from the same SkyToUnitVector(ra, dec) the row
/// decode runs.
bool WithinRadius(const query::QueryObject& qo, const Vec3& pos,
                  double* sep_arcsec);

/// Two-stage refinement test used by every join kernel. Stage one rejects
/// a candidate whose dot product with the query position is below
/// min_dot = 1 - w^2/2 - 1e-12, where w = r + 1e-9 rad for the match radius
/// r: a lower bound on cos(w) - 1e-12 that costs a few flops, so the test
/// is built once per query object. Stage two is the unchanged
/// WithinRadius.
/// For unit-vector positions (every MakeQueryObject and catalog position)
/// Dot and atan2 err by ~1e-15, orders of magnitude below the angular
/// margin and the dot-space slack, so stage one rejects only pairs
/// WithinRadius rejects too: every accepted pair and its separation come
/// from the exact test's bits. The slack keeps identical positions
/// accepted at r = 0; from w = 2 rad up (and for a NaN radius) stage one
/// rejects nothing. The query object must outlive the test.
class RadiusTest {
 public:
  explicit RadiusTest(const query::QueryObject& qo) : qo_(&qo) {
    constexpr double kRadPerArcsec = kDegToRad / kArcsecPerDeg;
    constexpr double kAngleMarginRad = 1e-9;
    constexpr double kDotSlack = 1e-12;
    const double w = qo.radius_arcsec * kRadPerArcsec + kAngleMarginRad;
    // 1 - w^2/2 <= cos(w) for every w and differs from it by at most
    // w^4/24 (under 2e-13 at 300 arcsec). From w = 2 it is <= -1, so the
    // radii where cos(w) stops being monotone reject nothing.
    min_dot_ = 1.0 - 0.5 * w * w - kDotSlack;
  }

  /// WithinRadius's verdict; `*sep_arcsec` is written only when stage two
  /// runs.
  bool operator()(const Vec3& pos, double* sep_arcsec) const {
    if (qo_->pos.Dot(pos) < min_dot_) return false;
    return WithinRadius(*qo_, pos, sep_arcsec);
  }
  bool operator()(const storage::CatalogObject& co,
                  double* sep_arcsec) const {
    return (*this)(co.pos, sep_arcsec);
  }

  /// Stage one's bound on the dot product.
  double min_dot() const { return min_dot_; }

 private:
  const query::QueryObject* qo_;
  double min_dot_;
};

/// Zero-copy sweep over one columnar page: binary-searches the decoded id
/// column per workload range, then walks the position/attribute column
/// spans in place. No CatalogObject is materialized on this path — match
/// output is built straight from the columns — so the only per-scan
/// allocation is the output vector (arena-backed in the parallel
/// evaluator). Candidate order, counters, and match bytes are identical
/// to the row sweep below by construction.
template <typename MatchVec>
JoinCounters MergeCrossMatchInto(const storage::ColumnarBucketView& view,
                                 std::span<const query::WorkloadEntry> batch,
                                 MatchVec* out) {
  JoinCounters counters;
  const htm::IdRange bucket_range = view.range();
  const std::span<const Vec3> pos = view.positions();
  const std::span<const double> ra = view.ra();
  const std::span<const double> dec = view.dec();
  const std::span<const float> mag = view.mag();
  const std::span<const float> color = view.color();
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.workload_objects;
      const RadiusTest test(qo);
      for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
        if (!r.Overlaps(bucket_range)) continue;
        htm::HtmId lo = std::max(r.lo, bucket_range.lo);
        htm::HtmId hi = std::min(r.hi, bucket_range.hi);
        const auto [first, last] = view.EqualRange(lo, hi);
        for (size_t i = first; i < last; ++i) {
          ++counters.candidates_tested;
          double sep = 0.0;
          if (!test(pos[i], &sep)) continue;
          ++counters.spatial_matches;
          if (!entry.predicate.Matches(mag[i], color[i])) continue;
          ++counters.output_matches;
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

/// Cross-matches every entry of a bucket's workload batch against the
/// bucket via sorted-range sweep, appending matches to `*out` (skipped
/// when null). Entries are processed in order and touch no shared state,
/// so disjoint slices of a batch may run on different threads and be
/// concatenated in slice order. Generic over the output vector so the
/// parallel evaluator can append into per-worker arena-backed vectors
/// (util::ArenaVector) while every other caller keeps std::vector.
/// Columnar buckets dispatch to the zero-copy page sweep above.
template <typename MatchVec>
JoinCounters MergeCrossMatchInto(const storage::Bucket& bucket,
                                 std::span<const query::WorkloadEntry> batch,
                                 MatchVec* out) {
  if (bucket.is_columnar()) {
    return MergeCrossMatchInto(bucket.view(), batch, out);
  }
  JoinCounters counters;
  const htm::IdRange bucket_range = bucket.range();
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.workload_objects;
      const RadiusTest test(qo);
      for (const htm::IdRange& r : qo.htm_ranges.ranges()) {
        if (!r.Overlaps(bucket_range)) continue;
        htm::HtmId lo = std::max(r.lo, bucket_range.lo);
        htm::HtmId hi = std::min(r.hi, bucket_range.hi);
        for (const storage::CatalogObject& co :
             bucket.ObjectsInRange(lo, hi)) {
          ++counters.candidates_tested;
          double sep = 0.0;
          if (!test(co, &sep)) continue;
          ++counters.spatial_matches;
          if (!entry.predicate.Matches(co)) continue;
          ++counters.output_matches;
          if (out != nullptr) {
            out->push_back(query::Match{entry.query_id, qo.id, co.object_id,
                                        sep, co.ra_deg, co.dec_deg});
          }
        }
      }
    }
  }
  return counters;
}

/// The std::vector instantiation of MergeCrossMatchInto (the serial path
/// and every pre-arena call site).
JoinCounters MergeCrossMatch(const storage::Bucket& bucket,
                             std::span<const query::WorkloadEntry> batch,
                             std::vector<query::Match>* out);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_MERGE_JOIN_H_
