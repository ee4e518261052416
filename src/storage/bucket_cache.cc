#include "storage/bucket_cache.h"

#include <cassert>
#include <utility>

namespace liferaft::storage {

BucketCache::BucketCache(BucketStore* store, size_t capacity,
                         size_t num_shards, const StorageTopology* topology,
                         uint64_t capacity_bytes)
    : store_(store),
      capacity_(capacity),
      capacity_bytes_(capacity_bytes),
      topology_(topology) {
  assert(store_ != nullptr);
  assert(capacity_ > 0);
  // Every shard must hold at least one bucket, so the shard count is capped
  // by the capacity; the remainder goes to the low shards. Under a
  // volume-aligned map the shard key only ranges over the volumes, so the
  // count is also capped there — extra shards could never receive an
  // entry and would silently strand their slice of the capacity.
  num_shards = std::max<size_t>(1, std::min(num_shards, capacity_));
  if (topology_ != nullptr) {
    num_shards = std::min(num_shards, topology_->num_volumes());
  }
  shards_.reserve(num_shards);
  const size_t base = capacity_ / num_shards;
  const size_t rem = capacity_ % num_shards;
  const uint64_t byte_base = capacity_bytes_ / num_shards;
  const uint64_t byte_rem = capacity_bytes_ % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < rem ? 1 : 0);
    shard->capacity_bytes = byte_base + (i < byte_rem ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

bool BucketCache::Contains(BucketIndex index) const {
  const Shard& shard = ShardFor(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.find(index) != shard.map.end();
}

size_t BucketCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

uint64_t BucketCache::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes_used;
  }
  return total;
}

CacheStats BucketCache::stats() const {
  CacheStats snapshot;
  snapshot.hits = stats_.hits.load(std::memory_order_relaxed);
  snapshot.misses = stats_.misses.load(std::memory_order_relaxed);
  snapshot.evictions = stats_.evictions.load(std::memory_order_relaxed);
  snapshot.evictions_protected =
      stats_.evictions_protected.load(std::memory_order_relaxed);
  return snapshot;
}

void BucketCache::ResetStats() {
  stats_.hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.evictions.store(0, std::memory_order_relaxed);
  stats_.evictions_protected.store(0, std::memory_order_relaxed);
}

void BucketCache::Touch(Shard& shard, std::list<Entry>::iterator it) {
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
}

void BucketCache::EvictOverCapacity(Shard& shard) {
  while (shard.map.size() > shard.capacity ||
         (shard.capacity_bytes > 0 &&
          shard.bytes_used > shard.capacity_bytes)) {
    // Victim order, scanning LRU-to-MRU and never the front entry (the
    // one the triggering insert just touched) until nothing else is
    // evictable:
    //  1. the LRU entry outside the prediction window;
    //  2. the LRU entry inside it — protection demotes, it must not starve
    //     the cache of evictable space (counted in evictions_protected);
    //  3. the front entry itself, when it is the only entry (with no
    //     window this reproduces plain LRU exactly).
    auto victim = shard.lru.end();
    auto protected_victim = shard.lru.end();
    for (auto it = std::prev(shard.lru.end()); it != shard.lru.begin();
         --it) {
      if (shard.window.find(it->index) == shard.window.end()) {
        victim = it;
        break;
      }
      if (protected_victim == shard.lru.end()) protected_victim = it;
    }
    bool victim_protected = false;
    if (victim == shard.lru.end()) {
      if (protected_victim != shard.lru.end()) {
        victim = protected_victim;
        victim_protected = true;
      } else {
        victim = shard.lru.begin();
        victim_protected =
            shard.window.find(victim->index) != shard.window.end();
      }
    }
    if (victim_protected) {
      stats_.evictions_protected.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    shard.bytes_used -= victim->bytes;
    shard.map.erase(victim->index);
    shard.lru.erase(victim);
  }
}

void BucketCache::SetPredictionWindow(std::span<const BucketIndex> window) {
  // Split the window by shard first so each shard is locked exactly once.
  std::vector<std::vector<BucketIndex>> by_shard(shards_.size());
  for (BucketIndex b : window) {
    by_shard[ShardKey(b) % shards_.size()].push_back(b);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.window.clear();
    shard.window.insert(by_shard[i].begin(), by_shard[i].end());
  }
}

void BucketCache::InsertMru(Shard& shard, BucketIndex index,
                            std::shared_ptr<const Bucket> bucket) {
  // Charges are only tracked in byte mode, keeping count-only shards
  // bit-for-bit on their pre-byte-mode behavior.
  const uint64_t bytes =
      shard.capacity_bytes > 0 ? ChargedBytes(index) : 0;
  shard.lru.push_front(Entry{index, std::move(bucket), bytes});
  shard.map[index] = shard.lru.begin();
  shard.bytes_used += bytes;
  EvictOverCapacity(shard);
}

void BucketCache::Put(BucketIndex index, std::shared_ptr<const Bucket> bucket) {
  Shard& shard = ShardFor(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(index);
  if (it != shard.map.end()) {
    Touch(shard, it->second);
    return;
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  InsertMru(shard, index, std::move(bucket));
}

Result<std::shared_ptr<const Bucket>> BucketCache::Get(BucketIndex index) {
  Shard& shard = ShardFor(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(index);
  if (it != shard.map.end()) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    Touch(shard, it->second);
    return it->second->bucket;
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const Bucket> bucket,
                            store_->ReadBucket(index));
  InsertMru(shard, index, bucket);
  return bucket;
}

void BucketCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->window.clear();
    shard->bytes_used = 0;
  }
}

}  // namespace liferaft::storage
