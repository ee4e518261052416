// Equal-sized bucket partitioning along the HTM space-filling curve
// (paper §3.1): sort objects by HTM ID and cut the curve into buckets with
// the same number of objects, so every bucket has uniform I/O cost while
// preserving spatial proximity.

#ifndef LIFERAFT_STORAGE_PARTITIONER_H_
#define LIFERAFT_STORAGE_PARTITIONER_H_

#include <memory>
#include <vector>

#include "htm/range_set.h"
#include "storage/bucket.h"
#include "util/status.h"

namespace liferaft::storage {

/// Immutable description of how the HTM curve is cut into buckets. Bucket i
/// owns the inclusive ID range [bounds[i], bounds[i+1]-1]; the ranges tile
/// the whole level-14 curve, so every possible object maps to exactly one
/// bucket.
class BucketMap {
 public:
  /// @param bounds ascending cut points; bounds.front() == LevelMin(14),
  ///        and an implicit final bound of LevelMax(14)+1.
  explicit BucketMap(std::vector<htm::HtmId> bounds);

  size_t num_buckets() const { return bounds_.size(); }

  /// Inclusive HTM range of bucket `i`.
  htm::IdRange RangeOf(BucketIndex i) const;

  /// Bucket owning `id`.
  BucketIndex BucketOf(htm::HtmId id) const;

  /// All buckets whose range overlaps [lo, hi] (a contiguous index run,
  /// since bucket ranges are sorted and tiling).
  std::pair<BucketIndex, BucketIndex> BucketsOverlapping(htm::HtmId lo,
                                                         htm::HtmId hi) const;

 private:
  std::vector<htm::HtmId> bounds_;  // bounds_[0] == LevelMin(kObjectLevel)
};

/// Result of partitioning: the map plus one encoded page per bucket.
struct PartitionResult {
  std::shared_ptr<const BucketMap> map;
  std::vector<Bucket> buckets;
};

/// Sorts `objects` by HTM ID and cuts them into buckets of
/// `objects_per_bucket` (the final bucket may be smaller). Cut points are
/// placed *between* distinct HTM IDs whenever possible so objects sharing an
/// ID stay in one bucket.
///
/// Returns InvalidArgument if objects is empty or objects_per_bucket == 0.
Result<PartitionResult> PartitionCatalog(std::vector<CatalogObject> objects,
                                         size_t objects_per_bucket);

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_PARTITIONER_H_
