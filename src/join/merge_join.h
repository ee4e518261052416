// Non-indexed cross-match of one bucket against its workload queue
// (paper §3.1): objects on both sides are sorted by HTM ID; the join is a
// simultaneous sweep that, for each workload object's bounding range, visits
// the bucket objects inside the range and applies the two-stage radius test
// (a dot-product bound, then the exact angular distance). Query-specific
// predicates are applied to the output tuples that succeed in the spatial
// join.

#ifndef LIFERAFT_JOIN_MERGE_JOIN_H_
#define LIFERAFT_JOIN_MERGE_JOIN_H_

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
};

/// Exact refinement test (stage two of RadiusTest below): true iff the
/// archive object lies within the query object's error radius.
bool WithinRadius(const query::QueryObject& qo,
                  const storage::CatalogObject& co, double* sep_arcsec);

/// Position-only form for the page scan kernels: same formula, same
/// bits — the Vec3 comes from the same SkyToUnitVector(ra, dec) that
/// MakeObject runs.
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

  /// Stage one as a scan: the first index in [from, pos.size()) that
  /// stage one accepts, or pos.size(). Call the unchanged WithinRadius on
  /// it for operator()'s verdict.
  size_t NextCandidate(std::span<const Vec3> pos, size_t from) const {
    const Vec3 q = qo_->pos;
    const double min_dot = min_dot_;
    while (from < pos.size() && q.Dot(pos[from]) < min_dot) ++from;
    return from;
  }

  /// Stage one's bound on the dot product.
  double min_dot() const { return min_dot_; }

 private:
  const query::QueryObject* qo_;
  double min_dot_;
};

/// Cross-matches every entry of a bucket's workload batch against the
/// bucket via sorted-range sweep: binary-searches the page's id column once
/// per workload object, for its hull (first range's lo to last range's hi,
/// clipped to the bucket), then finds each range's window inside the hull,
/// starting where the previous window ended. Each window's positions
/// (Positions) are scanned with RadiusTest::NextCandidate, and attribute
/// column spans are read in place, appending matches to `*out` (skipped
/// when null). No CatalogObject is materialized — match output is built
/// straight from the columns. Entries are processed in batch order.
JoinCounters MergeCrossMatch(const storage::Bucket& bucket,
                             std::span<const query::WorkloadEntry> batch,
                             std::vector<query::Match>* out);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_MERGE_JOIN_H_
