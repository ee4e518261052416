// Sharded LRU bucket cache (paper §4): LifeRaft manages bucket caching
// itself, independently of the database server's buffer pool. The cache's
// residency predicate is the phi(i) term of the workload throughput metric
// — cached buckets cost no T_b — so the greedy scheduler naturally
// gravitates toward cached, contentious buckets.
//
// Sharding: the bucket id hashes (modulo) to one of N shards, each with its
// own mutex, LRU list, and pin/prefetch state, so worker threads touching
// different shards never contend on a single cache-wide lock. Capacity is
// split as evenly as possible across shards; at num_shards == 1 every code
// path, eviction decision, and counter is byte-identical to the pre-shard
// cache. Hit/miss/eviction/prefetch statistics are aggregated atomically
// across shards (std::atomic counters), so stats() reports identical
// numbers at num_shards == 1 as the unsharded cache did.
//
// Prefetch contract (cross-batch pipelining): PrefetchAsync(i) starts
// pulling bucket i toward the cache ahead of need, overlapping the
// physical read with the owner thread's join compute. A prefetched bucket
// is *pinned* from issue to claim — it cannot be evicted before use:
//  * already-resident buckets are pinned in place (eviction skips them,
//    transiently exceeding capacity if every entry is pinned);
//  * in-flight buckets live outside the LRU until the owner claims them
//    via Get(), which inserts them most-recently-used and only then runs
//    eviction.
// Stats for a prefetched read are recorded at claim time on the owner
// thread (never from the worker), so I/O accounting stays deterministic.
//
// Prefetch-aware eviction (two LRU tiers per shard): the prefetch pipeline
// publishes the scheduler's current prediction window via
// SetPredictionWindow — the buckets it expects to serve (and therefore
// fetch or reuse) next. Eviction demotes those buckets last: the victim is
// the least-recently-used unpinned entry OUTSIDE the window, and only when
// every unpinned entry is inside the window does eviction fall back to the
// LRU protected entry (counted in evictions_protected). The entry the
// triggering insert just touched (the front of the LRU) is never the
// victim while anything else is evictable — protection demotes other
// buckets, it must not bounce the foreground's own bucket straight back
// out. This closes the self-defeating loop where inserting a prefetched
// bucket evicts the very bucket the next prediction wants — generic LRU
// knows nothing about the predictor. With an empty window (the default,
// and whenever prefetching is off) eviction is byte-identical to plain
// LRU.
//
// Threading: every method is safe to call from any thread — per-bucket
// operations serialize on the bucket's shard mutex only, and the store
// contract (bucket_store.h) requires ReadBucket to tolerate the resulting
// cross-shard concurrency. The virtual-clock drivers still funnel all
// modeled accounting through one owner thread (see exec::BatchPipeline);
// the shard locks exist for the physical layer: concurrent prefetch
// issue/claim/cancel across shards and the stress paths exercised in
// tests/test_storage.cc. Known limitation: a Get miss (store read) and a
// CancelPrefetch of an in-flight read block while HOLDING the shard lock,
// stalling that shard for the duration — fine for MemStore's pointer
// handouts, but a store with real read latency serializes its shard; a
// placeholder-entry protocol that drops the lock across the read is the
// upgrade path if that ever bites.

#ifndef LIFERAFT_STORAGE_BUCKET_CACHE_H_
#define LIFERAFT_STORAGE_BUCKET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <future>
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
#include "util/thread_pool.h"

namespace liferaft::storage {

/// Cache hit/miss counters. A claimed prefetch counts as a miss (the
/// bucket did come from the store) plus a prefetch_claims tick, so the hit
/// rate keeps its meaning and the claims count says how many misses the
/// pipeline (partially) hid.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// PrefetchAsync calls that started a fetch or pinned a resident bucket.
  uint64_t prefetch_issued = 0;
  /// Prefetches consumed by a later Get of the same bucket.
  uint64_t prefetch_claims = 0;
  /// Prefetches dropped unused (CancelPrefetch, Clear, or an unsupported
  /// store).
  uint64_t prefetch_cancels = 0;
  /// Bytes physically fetched by prefetches that were then dropped without
  /// a claim — the direct cost of mispredicted bets. The adaptive prefetch
  /// controller's stale-claim signal and the bench report both read this.
  uint64_t prefetch_wasted_bytes = 0;
  /// Evictions that had to take a bucket inside the current prediction
  /// window because every unpinned entry was protected (cache pressure
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
  /// The eventual outcome of a prefetch: the bucket, or the store's error.
  using BucketFuture = std::shared_future<Result<std::shared_ptr<const Bucket>>>;

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

  /// Drains any in-flight prefetches before destruction.
  ~BucketCache();

  /// True if the bucket is resident (phi(i) == 0). Does not affect LRU
  /// order — the metric may interrogate residency without touching
  /// recency. In-flight prefetches are NOT resident until claimed.
  bool Contains(BucketIndex index) const;

  /// Returns the bucket, reading it from the store on a miss; promotes to
  /// most-recently-used either way. Claims (and unpins) an outstanding
  /// prefetch of the same bucket, recording its deferred I/O stats.
  Result<std::shared_ptr<const Bucket>> Get(BucketIndex index);

  /// Starts fetching `index` ahead of need and pins it until the next
  /// Get(index) or CancelPrefetch(index). Returns a future that yields the
  /// bucket (callers typically ignore it and claim through Get). The read
  /// runs on the attached thread pool when one is set, synchronously on
  /// the caller otherwise — accounting is identical either way. For a
  /// store without SupportsConcurrentReads() the prefetch resolves to
  /// Unimplemented and the eventual Get degrades to a plain miss, again
  /// identically at every thread count. Idempotent while a prefetch of the
  /// same bucket is outstanding.
  BucketFuture PrefetchAsync(BucketIndex index);

  /// Inserts an externally-read bucket as most-recently-used (or promotes
  /// it if already resident). The real-I/O path reads pages through
  /// per-volume submission queues (storage/async_io.h) instead of the
  /// cache's own prefetch machinery and hands completed buckets over here;
  /// eviction applies immediately, no hit/miss/prefetch counter moves, and
  /// the just-inserted entry is never its own eviction victim.
  void Put(BucketIndex index, std::shared_ptr<const Bucket> bucket);

  /// Drops an unclaimed prefetch: unpins a resident bucket, or waits out
  /// and discards an in-flight read (no read stats are recorded for it).
  /// Returns the physical bytes the dropped bet had fetched (0 for a
  /// pinned-resident or failed prefetch) — the same quantity charged to
  /// the prefetch_wasted_bytes stat, returned so the caller can attribute
  /// the waste (the adaptive controller's per-arm cost term).
  /// No-op returning 0 if no prefetch of `index` is outstanding.
  uint64_t CancelPrefetch(BucketIndex index);

  /// Publishes the prefetch predictor's current window: buckets predicted
  /// to be served next, demoted last by eviction (see file comment).
  /// Replaces the previous window; an empty span restores plain LRU.
  /// Typically called once per pipeline step with PeekNextBuckets' output.
  void SetPredictionWindow(std::span<const BucketIndex> window);

  /// True if a prefetch of `index` is outstanding (issued, not yet claimed
  /// or canceled).
  bool IsPrefetchPending(BucketIndex index) const;

  /// True if `index` is resident and pinned by an unclaimed prefetch.
  bool IsPinned(BucketIndex index) const;

  /// Drops everything, including unclaimed prefetches (used between
  /// experiment phases).
  void Clear();

  /// Attaches the worker pool used for asynchronous prefetch reads (not
  /// owned; may be null to force synchronous prefetching). The pool must
  /// outlive the cache's last in-flight prefetch.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

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
    /// Unclaimed prefetches holding this entry in place (0 = evictable).
    uint32_t pins = 0;
    /// Bytes charged against the shard's byte slice (0 in count-only
    /// mode).
    uint64_t bytes = 0;
  };

  /// One issued, unclaimed prefetch.
  struct Inflight {
    BucketFuture future;
    /// True if the bucket was already resident at issue (claim = unpin).
    bool pinned_resident = false;
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
    std::unordered_map<BucketIndex, Inflight> inflight;
    /// This shard's slice of the prediction window (protected tier).
    std::unordered_set<BucketIndex> window;
  };

  /// Monotonically aggregated counters, incremented under shard locks but
  /// readable lock-free from any thread.
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> prefetch_issued{0};
    std::atomic<uint64_t> prefetch_claims{0};
    std::atomic<uint64_t> prefetch_cancels{0};
    std::atomic<uint64_t> prefetch_wasted_bytes{0};
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
  /// Records the physical bytes of a dropped-without-claim prefetch and
  /// returns them. Call with the resolved future of a non-resident
  /// inflight entry.
  uint64_t RecordWastedPrefetch(const Inflight& inflight);
  /// Inserts `bucket` most-recently-used and evicts down to the shard's
  /// capacity, skipping pinned entries (so residency may transiently
  /// exceed capacity while pins are held).
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
  util::ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  AtomicStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_CACHE_H_
