// Sharded LRU bucket cache (paper §4): LifeRaft manages bucket caching
// itself, independently of the database server's buffer pool. The cache's
// residency predicate is the phi(i) term of the workload throughput metric
// — cached buckets cost no T_b — so the greedy scheduler naturally
// gravitates toward cached, contentious buckets.
//
// Sharding: the bucket id hashes (modulo) to one of N shards, each with its
// own mutex and LRU list, so worker threads touching different shards never
// contend on a single cache-wide lock. Capacity is split as evenly as
// possible across shards; at num_shards == 1 every code path, eviction
// decision, and counter is byte-identical to the pre-shard cache.
// Hit/miss/eviction statistics are aggregated atomically across shards
// (std::atomic counters), so stats() reports identical numbers at
// num_shards == 1 as the unsharded cache did.
//
// The cache holds only claimed buckets. Prefetch bets — reads started
// ahead of need — belong to exec::BatchPipeline; a bet's bucket enters the
// cache when the pipeline claims it, through Get (the modeled oracle reads
// the page then) or Put (measured mode read it on a submission queue).
// Either way a bucket that was not resident counts one miss.
//
// Prefetch-aware eviction (two LRU tiers per shard): the prefetch pipeline
// publishes the scheduler's current prediction window via
// SetPredictionWindow — the buckets it expects to serve (and therefore
// fetch or reuse) next. Eviction demotes those buckets last: the victim is
// the least-recently-used entry OUTSIDE the window, and only when every
// entry is inside the window does eviction fall back to the LRU protected
// entry (counted in evictions_protected). The entry the triggering insert
// just touched (the front of the LRU) is never the victim while anything
// else is evictable — protection demotes other buckets, it must not bounce
// the foreground's own bucket straight back out. This closes the
// self-defeating loop where inserting a claimed bet evicts the very bucket
// the next prediction wants — generic LRU knows nothing about the
// predictor. With an empty window (the default, and whenever prefetching
// is off) eviction is byte-identical to plain LRU.
//
// Threading: every method is safe to call from any thread — per-bucket
// operations serialize on the bucket's shard mutex only, and the store
// contract (bucket_store.h) requires ReadBucket to tolerate the resulting
// cross-shard concurrency. The drivers still funnel all accounting through
// one owner thread (see exec::BatchPipeline); the stress test in
// tests/test_storage.cc races Get/Put/Contains/SetPredictionWindow across
// shards. Known limitation: a Get miss (store read) blocks while HOLDING
// the shard lock, stalling that shard for the duration — fine for
// MemStore's pointer handouts, but a store with real read latency
// serializes its shard; a placeholder-entry protocol that drops the lock
// across the read is the upgrade path if that ever bites.

#ifndef LIFERAFT_STORAGE_BUCKET_CACHE_H_
#define LIFERAFT_STORAGE_BUCKET_CACHE_H_

#include <atomic>
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
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::storage {

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

/// Fixed-capacity sharded LRU cache of immutable buckets, layered over a
/// BucketStore.
class BucketCache {
 public:
  /// @param store      backing store (not owned; must outlive the cache)
  /// @param capacity   maximum number of resident buckets (paper: 20)
  /// @param num_shards lock/LRU shards; clamped to [1, capacity] so every
  ///                   shard holds at least one bucket. 1 reproduces the
  ///                   unsharded cache exactly.
  /// @param topology   optional volume map (not owned; must outlive the
  ///                   cache). When set, buckets shard by their volume
  ///                   (VolumeOf(b) % num_shards) instead of by raw bucket
  ///                   id — under range placement curve-adjacent buckets
  ///                   then share a shard (and its LRU domain), aligning
  ///                   the cache's lock/eviction domains with the arms
  ///                   that feed them; num_shards is additionally clamped
  ///                   to the volume count, since shards beyond it could
  ///                   never receive an entry. Irrelevant at
  ///                   num_shards == 1.
  /// @param capacity_bytes optional byte budget, split across shards like
  ///                   the count capacity. 0 (default) disables byte
  ///                   accounting entirely — byte-identical to the
  ///                   pre-byte-mode cache. When set, each resident bucket
  ///                   is charged the store's real page size when it has
  ///                   one (FileStore, either format) and the
  ///                   kBytesPerObject estimate otherwise (MemStore), and
  ///                   eviction also runs while a
  ///                   shard is over its byte slice — so at a fixed MB
  ///                   budget, smaller encoded pages mean more resident
  ///                   buckets. The count bound still applies; callers
  ///                   wanting a pure byte budget pass capacity =
  ///                   num_buckets.
  BucketCache(BucketStore* store, size_t capacity, size_t num_shards = 1,
              const StorageTopology* topology = nullptr,
              uint64_t capacity_bytes = 0);

  /// True if the bucket is resident (phi(i) == 0). Does not affect LRU
  /// order — the metric may interrogate residency without touching
  /// recency.
  bool Contains(BucketIndex index) const;

  /// Returns the bucket, reading it from the store on a miss; promotes to
  /// most-recently-used either way.
  Result<std::shared_ptr<const Bucket>> Get(BucketIndex index);

  /// Inserts an externally-read bucket as most-recently-used (or promotes
  /// it if already resident). The real-I/O path reads pages through
  /// per-volume submission queues (storage/async_io.h) and hands completed
  /// buckets over here. A bucket that was not resident counts one miss
  /// (it came from the store; the caller bills the read); eviction applies
  /// immediately, and the just-inserted entry is never its own eviction
  /// victim.
  void Put(BucketIndex index, std::shared_ptr<const Bucket> bucket);

  /// Publishes the prefetch predictor's current window: buckets predicted
  /// to be served next, demoted last by eviction (see file comment).
  /// Replaces the previous window; an empty span restores plain LRU.
  /// Typically called once per pipeline step with PeekNextBuckets' output.
  void SetPredictionWindow(std::span<const BucketIndex> window);

  /// Drops everything (used between experiment phases).
  void Clear();

  /// The backing store (for metadata queries; reads should go through
  /// Get so residency stays coherent).
  const BucketStore& store() const { return *store_; }

  /// The backing store, mutable: the per-query NoShare path reads buckets
  /// directly (no shared cache, by definition) and needs the
  /// stats-recording ReadBucket.
  BucketStore* mutable_store() { return store_; }

  size_t capacity() const { return capacity_; }
  /// The byte budget (0 = byte accounting off).
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Resident buckets across all shards.
  size_t size() const;
  /// Charged bytes resident across all shards (0 when byte accounting is
  /// off — charges are only tracked in byte mode).
  uint64_t resident_bytes() const;
  /// Atomic cross-shard snapshot of the aggregated counters.
  CacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    BucketIndex index;
    std::shared_ptr<const Bucket> bucket;
    /// Bytes charged against the shard's byte slice (0 in count-only
    /// mode).
    uint64_t bytes = 0;
  };

  /// One lock domain: an independent LRU over its slice of the capacity.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    /// This shard's slice of the byte budget (0 = byte accounting off).
    uint64_t capacity_bytes = 0;
    /// Charged bytes of the resident entries (maintained only in byte
    /// mode).
    uint64_t bytes_used = 0;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<BucketIndex, std::list<Entry>::iterator> map;
    /// This shard's slice of the prediction window (protected tier).
    std::unordered_set<BucketIndex> window;
  };

  /// Monotonically aggregated counters, incremented under shard locks but
  /// readable lock-free from any thread.
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> evictions_protected{0};
  };

  /// Shard key: the owning volume when a topology is attached (aligning
  /// lock/LRU domains with arms), the raw bucket id otherwise.
  size_t ShardKey(BucketIndex index) const {
    return topology_ != nullptr
               ? static_cast<size_t>(topology_->VolumeOf(index))
               : static_cast<size_t>(index);
  }
  Shard& ShardFor(BucketIndex index) {
    return *shards_[ShardKey(index) % shards_.size()];
  }
  const Shard& ShardFor(BucketIndex index) const {
    return *shards_[ShardKey(index) % shards_.size()];
  }

  // Shard-local helpers; the shard's mutex must be held.
  static void Touch(Shard& shard, std::list<Entry>::iterator it);
  /// Inserts `bucket` most-recently-used and evicts down to the shard's
  /// capacity.
  void InsertMru(Shard& shard, BucketIndex index,
                 std::shared_ptr<const Bucket> bucket);
  void EvictOverCapacity(Shard& shard);

  /// Bytes a resident bucket is charged in byte mode: the store's real
  /// page size (either file format), the modeled estimate when it has
  /// none (MemStore).
  uint64_t ChargedBytes(BucketIndex index) const {
    return store_->ModeledBucketBytes(index, /*charge_encoded=*/true);
  }

  BucketStore* store_;
  size_t capacity_;
  uint64_t capacity_bytes_ = 0;
  const StorageTopology* topology_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  AtomicStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_CACHE_H_
