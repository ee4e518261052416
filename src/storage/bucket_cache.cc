#include "storage/bucket_cache.h"

#include <cassert>
#include <utility>

namespace liferaft::storage {

BucketCache::BucketCache(BucketStore* store, size_t capacity,
                         uint64_t capacity_bytes)
    : store_(store), capacity_(capacity), capacity_bytes_(capacity_bytes) {
  assert(store_ != nullptr);
  assert(capacity_ > 0);
}

bool BucketCache::Contains(BucketIndex index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.find(index) != map_.end();
}

size_t BucketCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

uint64_t BucketCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

CacheStats BucketCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BucketCache::Touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void BucketCache::EvictOverCapacity() {
  while (map_.size() > capacity_ ||
         (capacity_bytes_ > 0 && bytes_used_ > capacity_bytes_)) {
    // Victim order, scanning LRU-to-MRU and never the front entry (the
    // one the triggering insert just touched) until nothing else is
    // evictable:
    //  1. the LRU entry outside the prediction window;
    //  2. the LRU entry inside it — protection demotes, it must not starve
    //     the cache of evictable space (counted in evictions_protected);
    //  3. the front entry itself, when it is the only entry (with no
    //     window this reproduces plain LRU exactly).
    auto victim = lru_.end();
    auto protected_victim = lru_.end();
    for (auto it = std::prev(lru_.end()); it != lru_.begin(); --it) {
      if (window_.find(it->index) == window_.end()) {
        victim = it;
        break;
      }
      if (protected_victim == lru_.end()) protected_victim = it;
    }
    bool victim_protected = false;
    if (victim == lru_.end()) {
      if (protected_victim != lru_.end()) {
        victim = protected_victim;
        victim_protected = true;
      } else {
        victim = lru_.begin();
        victim_protected = window_.find(victim->index) != window_.end();
      }
    }
    if (victim_protected) ++stats_.evictions_protected;
    ++stats_.evictions;
    bytes_used_ -= victim->bytes;
    map_.erase(victim->index);
    lru_.erase(victim);
  }
}

void BucketCache::SetPredictionWindow(std::span<const BucketIndex> window) {
  std::lock_guard<std::mutex> lock(mu_);
  window_.clear();
  window_.insert(window.begin(), window.end());
}

void BucketCache::InsertMru(BucketIndex index,
                            std::shared_ptr<const Bucket> bucket) {
  // Charges are only tracked in byte mode, keeping the count-only cache
  // bit-for-bit on its pre-byte-mode behavior.
  const uint64_t bytes = capacity_bytes_ > 0 ? ChargedBytes(index) : 0;
  lru_.push_front(Entry{index, std::move(bucket), bytes});
  map_[index] = lru_.begin();
  bytes_used_ += bytes;
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
  bytes_used_ = 0;
}

}  // namespace liferaft::storage
