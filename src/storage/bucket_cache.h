// Bucket cache (paper §4): LifeRaft manages bucket caching itself,
// independently of the database server's buffer pool. The cache's
// residency predicate is the phi(i) term of the workload throughput metric
// — cached buckets cost no T_b — so the greedy scheduler naturally
// gravitates toward cached, contentious buckets.
//
// The cache holds only claimed buckets. Prefetch bets — reads started
// ahead of need — belong to exec::BatchPipeline; a bet's bucket enters the
// cache when the pipeline claims it, through Get (the modeled oracle reads
// the page then) or Put (measured mode read it on a submission queue).
// Either way a bucket that was not resident counts one miss.
//
// Priced eviction (GreedyDual; Young 1994, Cao & Irani 1997): evicting a
// bucket costs a re-read on the arm that owns it, and on a heterogeneous
// topology a slow arm's re-read costs more. Every touch (an insert, a Get
// hit, a Put of a resident bucket) sets the entry's priority to L plus
// its volume's price; the victim is the lowest priority, ties going to
// the least recently used entry, and L then rises to the victim's
// priority. So a cheap bucket leaves before a dear one that is not much
// older, and inflation lets a dear bucket nothing touches age out in the
// end. A volume's price is its T_b for the store's mean modeled bucket,
// squared: a re-read costs its arm T_b, and with buckets spread evenly
// over the arms each arm's share of disk time also scales with T_b. The
// prices come from the storage topology, once per volume. Equal disks —
// a uniform topology, or none — give equal prices, and then the order of
// priorities is the order of touches: eviction is exactly LRU.
//
// Prefetch-aware eviction (two tiers): the prefetch pipeline publishes
// the scheduler's current prediction window via SetPredictionWindow — the
// buckets it expects to serve (and therefore fetch or reuse) next.
// Eviction demotes those buckets last: the victim is the lowest-priority
// entry OUTSIDE the window, and only when every entry is inside the window
// does eviction fall back to the lowest-priority protected entry (counted
// in evictions_protected). The entry the triggering insert just touched
// (the front of the recency list) is never the victim — protection
// demotes other buckets, it must not bounce the foreground's own bucket
// straight back out. This closes the
// self-defeating loop where inserting a claimed bet evicts the very bucket
// the next prediction wants — a generic policy knows nothing about the
// predictor. With an empty window (the default, and whenever prefetching
// is off) only the priorities decide.
//
// Threading: every method is safe to call from any thread — each takes
// the cache's one mutex, which also guards the counters. The drivers
// touch the cache only from their owner thread (see exec::BatchPipeline:
// the evaluator runs every join on that thread, and the per-query NoShare
// path reads the store directly); the stress test in
// tests/test_storage.cc races Get/Put/Contains/SetPredictionWindow on the
// lock. Known limitation: a Get miss (store read) blocks while HOLDING
// the lock — fine for MemStore's pointer handouts and for one owner
// thread, but concurrent callers over a store with real read latency
// would serialize; a placeholder-entry protocol that drops the lock
// across the read is the upgrade path if that ever bites.

#ifndef LIFERAFT_STORAGE_BUCKET_CACHE_H_
#define LIFERAFT_STORAGE_BUCKET_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/bucket.h"
#include "storage/bucket_store.h"
#include "util/status.h"

namespace liferaft::storage {

class StorageTopology;  // storage/topology.h

/// Cache hit/miss counters. A miss is a bucket that came from the store:
/// a Get that read it, or a Put of a bucket that was not resident.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Evictions that had to take a bucket inside the current prediction
  /// window because every other entry was protected (cache pressure
  /// exceeding what prefetch-aware demotion can absorb).
  uint64_t evictions_protected = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity cache of immutable buckets with priced (GreedyDual)
/// eviction, layered over a BucketStore.
class BucketCache {
 public:
  /// @param store      backing store (not owned; must outlive the cache)
  /// @param capacity   maximum number of resident buckets (paper: 20)
  /// @param topology   optional volume map over the store's buckets that
  ///                   prices evictions (see file comment); null prices
  ///                   every bucket alike (plain LRU). Read only here.
  BucketCache(BucketStore* store, size_t capacity,
              const StorageTopology* topology = nullptr);

  /// True if the bucket is resident (phi(i) == 0). Does not touch the
  /// entry — the metric may interrogate residency without changing its
  /// priority or recency.
  bool Contains(BucketIndex index) const;

  /// Returns the bucket, reading it from the store on a miss; touches it
  /// either way.
  Result<std::shared_ptr<const Bucket>> Get(BucketIndex index);

  /// Inserts an externally-read bucket (or touches it if already
  /// resident). The real-I/O path reads pages through
  /// per-volume submission queues (storage/async_io.h) and hands completed
  /// buckets over here. A bucket that was not resident counts one miss
  /// (it came from the store; the caller bills the read); eviction applies
  /// immediately, and the just-inserted entry is never its own eviction
  /// victim.
  void Put(BucketIndex index, std::shared_ptr<const Bucket> bucket);

  /// Publishes the prefetch predictor's current window: buckets predicted
  /// to be served next, demoted last by eviction (see file comment).
  /// Replaces the previous window; an empty span lifts all protection.
  /// Typically called once per pipeline step with PeekNextBuckets' output.
  void SetPredictionWindow(std::span<const BucketIndex> window);

  /// Drops everything and resets the inflation L (used between experiment
  /// phases).
  void Clear();

  /// The backing store (for metadata queries; reads should go through
  /// Get so residency stays coherent).
  const BucketStore& store() const { return *store_; }

  /// The backing store, mutable: the per-query NoShare path reads buckets
  /// directly (no shared cache, by definition) and needs the
  /// stats-recording ReadBucket.
  BucketStore* mutable_store() { return store_; }

  size_t capacity() const { return capacity_; }
  /// Resident buckets.
  size_t size() const;
  /// A snapshot of the counters.
  CacheStats stats() const;
  /// The GreedyDual inflation L: the highest victim priority so far.
  double inflation() const;

 private:
  struct Entry {
    BucketIndex index;
    std::shared_ptr<const Bucket> bucket;
    /// GreedyDual priority: L at the last touch plus the bucket's price.
    double priority = 0.0;
  };

  // Helpers; mu_ must be held.
  /// Re-prices the entry at the current L and moves it to the front.
  void Touch(std::list<Entry>::iterator it);
  /// Inserts `bucket` at the front and evicts one entry if that puts the
  /// cache over capacity.
  void InsertMru(BucketIndex index, std::shared_ptr<const Bucket> bucket);
  void EvictOverCapacity();

  /// Price of re-reading bucket `index` (see file comment).
  double Price(BucketIndex index) const {
    return price_.empty() ? 1.0 : price_[index];
  }

  BucketStore* store_;
  const size_t capacity_;
  /// Per-bucket eviction price, from the topology; empty without one.
  std::vector<double> price_;

  mutable std::mutex mu_;
  /// Inflation L (see file comment).
  double inflation_ = 0.0;
  std::list<Entry> lru_;  // front = most recently touched
  std::unordered_map<BucketIndex, std::list<Entry>::iterator> map_;
  /// The prediction window (protected tier).
  std::unordered_set<BucketIndex> window_;
  CacheStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_CACHE_H_
