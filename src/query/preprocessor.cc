#include "query/preprocessor.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace liferaft::query {

std::vector<BucketWorkload> SplitQueryByBucket(
    const CrossMatchQuery& query, const storage::BucketMap& map) {
  // One (bucket, object index) pair per bucket an object reaches. An
  // object's ranges ascend, so its buckets ascend too: a bucket can repeat
  // only as the first bucket of the object's next range.
  std::vector<std::pair<storage::BucketIndex, size_t>> pairs;
  pairs.reserve(query.objects.size());
  for (size_t i = 0; i < query.objects.size(); ++i) {
    const std::vector<htm::IdRange>& ranges =
        query.objects[i].htm_ranges.ranges();
    if (ranges.empty()) continue;
    const auto [hull_lo, hull_hi] =
        map.BucketsOverlapping(ranges.front().lo, ranges.back().hi);
    if (hull_lo == hull_hi) {
      pairs.emplace_back(hull_lo, i);
      continue;
    }
    const size_t object_first = pairs.size();
    for (const htm::IdRange& r : ranges) {
      auto [lo, hi] = map.BucketsOverlapping(r.lo, r.hi);
      if (pairs.size() > object_first && pairs.back().first == lo) ++lo;
      for (storage::BucketIndex b = lo; b <= hi; ++b) pairs.emplace_back(b, i);
    }
  }
  // Pairs are unique, so sorting by (bucket, index) groups them by bucket
  // and keeps query-object order inside each group.
  std::sort(pairs.begin(), pairs.end());

  std::vector<BucketWorkload> out;
  for (auto it = pairs.begin(); it != pairs.end();) {
    const storage::BucketIndex bucket = it->first;
    const auto group_end = std::find_if(
        it, pairs.end(), [bucket](const auto& p) { return p.first != bucket; });
    BucketWorkload& w = out.emplace_back();
    w.bucket = bucket;
    w.objects.reserve(static_cast<size_t>(std::distance(it, group_end)));
    for (; it != group_end; ++it) {
      w.objects.push_back(query.objects[it->second]);
    }
  }
  return out;
}

}  // namespace liferaft::query
