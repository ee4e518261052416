// Sorted sets of inclusive HTM ID ranges. Query objects carry a range set
// (the coarse-filter bounding region of their cross-match error circle) and
// buckets own one contiguous range of the curve; overlap between the two is
// what assigns an object to a bucket's workload queue.

#ifndef LIFERAFT_HTM_RANGE_SET_H_
#define LIFERAFT_HTM_RANGE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "htm/htm_id.h"

namespace liferaft::htm {

/// One inclusive ID interval [lo, hi].
struct IdRange {
  HtmId lo = 0;
  HtmId hi = 0;

  bool Contains(HtmId id) const { return id >= lo && id <= hi; }
  bool Overlaps(const IdRange& o) const { return lo <= o.hi && o.lo <= hi; }
  /// Number of IDs covered.
  uint64_t Count() const { return hi - lo + 1; }

  bool operator==(const IdRange& o) const { return lo == o.lo && hi == o.hi; }
};

/// A normalized (sorted, non-overlapping, non-adjacent-merged) set of
/// inclusive ID ranges over a single level of the mesh.
class RangeSet {
 public:
  RangeSet() = default;
  explicit RangeSet(std::vector<IdRange> ranges);

  /// Adds a range. A range that starts at or after the start of the set's
  /// last range is merged in place, so adding in ascending order keeps the
  /// set normalized and `size()` O(1); any other order defers
  /// normalization to the next query.
  void Add(IdRange r);
  void Add(HtmId lo, HtmId hi) { Add(IdRange{lo, hi}); }

  /// True if any range contains `id`.
  bool Contains(HtmId id) const;

  /// True if any range overlaps [lo, hi].
  bool Overlaps(const IdRange& r) const;
  bool Overlaps(HtmId lo, HtmId hi) const { return Overlaps(IdRange{lo, hi}); }

  /// Total number of IDs covered.
  uint64_t Count() const;

  /// Normalized ranges in ascending order.
  const std::vector<IdRange>& ranges() const;

  bool empty() const { return ranges().empty(); }
  size_t size() const { return ranges().size(); }

  /// Set intersection.
  RangeSet Intersect(const RangeSet& other) const;

  /// "[lo,hi] [lo,hi] ..." for debugging.
  std::string ToString() const;

 private:
  void Normalize() const;

  mutable std::vector<IdRange> ranges_;
  mutable bool normalized_ = true;
};

}  // namespace liferaft::htm

#endif  // LIFERAFT_HTM_RANGE_SET_H_
