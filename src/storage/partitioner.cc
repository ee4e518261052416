#include "storage/partitioner.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace liferaft::storage {

BucketMap::BucketMap(std::vector<htm::HtmId> bounds)
    : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(bounds_.front() == htm::LevelMin(htm::kObjectLevel));
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

htm::IdRange BucketMap::RangeOf(BucketIndex i) const {
  assert(i < bounds_.size());
  htm::HtmId lo = bounds_[i];
  htm::HtmId hi = (i + 1 < bounds_.size()) ? bounds_[i + 1] - 1
                                           : htm::LevelMax(htm::kObjectLevel);
  return {lo, hi};
}

BucketIndex BucketMap::BucketOf(htm::HtmId id) const {
  assert(id >= bounds_.front() && id <= htm::LevelMax(htm::kObjectLevel));
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), id);
  return static_cast<BucketIndex>((it - bounds_.begin()) - 1);
}

std::pair<BucketIndex, BucketIndex> BucketMap::BucketsOverlapping(
    htm::HtmId lo, htm::HtmId hi) const {
  assert(lo <= hi);
  // Clamp to the object-level ID domain.
  htm::HtmId min_id = htm::LevelMin(htm::kObjectLevel);
  htm::HtmId max_id = htm::LevelMax(htm::kObjectLevel);
  lo = std::clamp(lo, min_id, max_id);
  hi = std::clamp(hi, min_id, max_id);
  return {BucketOf(lo), BucketOf(hi)};
}

Result<PartitionResult> PartitionCatalog(std::vector<CatalogObject> objects,
                                         size_t objects_per_bucket) {
  if (objects.empty()) {
    return Status::InvalidArgument("cannot partition an empty catalog");
  }
  if (objects_per_bucket == 0) {
    return Status::InvalidArgument("objects_per_bucket must be positive");
  }
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);

  // Choose cut points every objects_per_bucket objects, advancing each cut
  // past runs of equal HTM IDs so an ID never straddles two buckets.
  std::vector<size_t> cuts = {0};
  size_t pos = objects_per_bucket;
  while (pos < objects.size()) {
    while (pos < objects.size() &&
           objects[pos].htm_id == objects[pos - 1].htm_id) {
      ++pos;
    }
    if (pos >= objects.size()) break;
    cuts.push_back(pos);
    pos += objects_per_bucket;
  }

  std::vector<htm::HtmId> bounds;
  bounds.reserve(cuts.size());
  bounds.push_back(htm::LevelMin(htm::kObjectLevel));
  for (size_t i = 1; i < cuts.size(); ++i) {
    bounds.push_back(objects[cuts[i]].htm_id);
  }

  auto map = std::make_shared<const BucketMap>(std::move(bounds));

  PartitionResult result;
  result.buckets.reserve(cuts.size());
  const std::span<const CatalogObject> sorted(objects);
  for (size_t i = 0; i < cuts.size(); ++i) {
    size_t begin = cuts[i];
    size_t end = (i + 1 < cuts.size()) ? cuts[i + 1] : objects.size();
    const auto index = static_cast<BucketIndex>(i);
    LIFERAFT_ASSIGN_OR_RETURN(
        std::shared_ptr<const ColumnarPage> page,
        ColumnarPage::Encode(map->RangeOf(index),
                             sorted.subspan(begin, end - begin)));
    result.buckets.emplace_back(index, std::move(page));
  }
  result.map = std::move(map);
  return result;
}

}  // namespace liferaft::storage
