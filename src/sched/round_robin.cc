#include "sched/round_robin.h"

#include <algorithm>

namespace liferaft::sched {

std::optional<storage::BucketIndex> RoundRobinScheduler::PickBucket(
    const query::WorkloadManager& manager, TimeMs now,
    const CacheProbe& cached) {
  const std::vector<storage::BucketIndex> peek =
      PeekNextBuckets(manager, now, cached, 1);
  if (peek.empty()) return std::nullopt;
  cursor_ = peek.front() + 1;
  return peek.front();
}

std::vector<storage::BucketIndex> RoundRobinScheduler::PeekNextBuckets(
    const query::WorkloadManager& manager, TimeMs /*now*/,
    const CacheProbe& /*cached*/, size_t k) const {
  const auto& active = manager.active_buckets();
  std::vector<storage::BucketIndex> predicted;
  if (active.empty() || k == 0) return predicted;
  // Walk the cyclic sweep from the cursor; a full lap visits every active
  // bucket exactly once, so the prediction depth caps there.
  predicted.reserve(std::min(k, active.size()));
  auto it = active.lower_bound(cursor_);
  if (it == active.end()) it = active.begin();  // wrap the sweep
  while (predicted.size() < std::min(k, active.size())) {
    predicted.push_back(*it);
    if (++it == active.end()) it = active.begin();
  }
  return predicted;
}

}  // namespace liferaft::sched
