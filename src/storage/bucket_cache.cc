#include "storage/bucket_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "storage/topology.h"

namespace liferaft::storage {

BucketCache::BucketCache(BucketStore* store, size_t capacity,
                         const StorageTopology* topology)
    : store_(store), capacity_(capacity) {
  assert(store_ != nullptr);
  assert(capacity_ > 0);
  if (topology == nullptr) return;
  const size_t buckets = store_->num_buckets();
  assert(topology->num_buckets() == buckets);
  // The mean bucket at the paper's kBytesPerObject estimate: one size for
  // every volume, so only the volumes' disk models set the prices apart.
  uint64_t total_bytes = 0;
  for (BucketIndex b = 0; b < buckets; ++b) {
    total_bytes += store_->ModeledBucketBytes(b);
  }
  const uint64_t mean_bytes = total_bytes / buckets;
  std::vector<double> volume_price;
  for (VolumeIndex v = 0; v < topology->num_volumes(); ++v) {
    const TimeMs t_b = topology->model(v).SequentialReadMs(mean_bytes);
    volume_price.push_back(t_b * t_b);
  }
  price_.reserve(buckets);
  for (BucketIndex b = 0; b < buckets; ++b) {
    price_.push_back(volume_price[topology->VolumeOf(b)]);
  }
}

bool BucketCache::Contains(BucketIndex index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.find(index) != map_.end();
}

size_t BucketCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

CacheStats BucketCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double BucketCache::inflation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflation_;
}

void BucketCache::Touch(std::list<Entry>::iterator it) {
  it->priority = inflation_ + Price(it->index);
  lru_.splice(lru_.begin(), lru_, it);
}

void BucketCache::EvictOverCapacity() {
  if (map_.size() <= capacity_) return;
  // An insert puts the cache at most one entry over a capacity of at least
  // one, so there are two entries or more and the victim is never the
  // front one (the entry the triggering insert just touched). Victim
  // order:
  //  1. the lowest-priority entry outside the prediction window;
  //  2. the lowest-priority entry inside it — protection demotes, it
  //     must not starve the cache of evictable space (counted in
  //     evictions_protected).
  // The scan runs from the least recently touched entry and keeps the
  // first of equal priorities, so ties go to the least recently used.
  auto victim = lru_.end();
  auto protected_victim = lru_.end();
  for (auto it = std::prev(lru_.end()); it != lru_.begin(); --it) {
    auto& best = window_.contains(it->index) ? protected_victim : victim;
    if (best == lru_.end() || it->priority < best->priority) best = it;
  }
  if (victim == lru_.end()) {
    victim = protected_victim;
    ++stats_.evictions_protected;
  }
  ++stats_.evictions;
  inflation_ = std::max(inflation_, victim->priority);
  map_.erase(victim->index);
  lru_.erase(victim);
}

void BucketCache::SetPredictionWindow(std::span<const BucketIndex> window) {
  std::lock_guard<std::mutex> lock(mu_);
  window_.clear();
  window_.insert(window.begin(), window.end());
}

void BucketCache::InsertMru(BucketIndex index,
                            std::shared_ptr<const Bucket> bucket) {
  lru_.push_front(Entry{index, std::move(bucket), inflation_ + Price(index)});
  map_[index] = lru_.begin();
  EvictOverCapacity();
}

void BucketCache::Put(BucketIndex index, std::shared_ptr<const Bucket> bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(index);
  if (it != map_.end()) {
    Touch(it->second);
    return;
  }
  ++stats_.misses;
  InsertMru(index, std::move(bucket));
}

Result<std::shared_ptr<const Bucket>> BucketCache::Get(BucketIndex index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(index);
  if (it != map_.end()) {
    ++stats_.hits;
    Touch(it->second);
    return it->second->bucket;
  }
  ++stats_.misses;
  LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const Bucket> bucket,
                            store_->ReadBucket(index));
  InsertMru(index, bucket);
  return bucket;
}

void BucketCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  window_.clear();
  inflation_ = 0.0;
}

}  // namespace liferaft::storage
