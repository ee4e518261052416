// BucketStore: the storage engine interface LifeRaft reads buckets through.
// Two implementations: MemStore (catalog held in RAM; I/O latency comes from
// the DiskModel in the simulator) and FileStore (real file-backed buckets
// with checksummed binary pages).

#ifndef LIFERAFT_STORAGE_BUCKET_STORE_H_
#define LIFERAFT_STORAGE_BUCKET_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/bucket.h"
#include "storage/partitioner.h"
#include "util/status.h"

namespace liferaft::util {
class Arena;  // only named by ReadBucketForPrefetchScratch's signature
}  // namespace liferaft::util

namespace liferaft::storage {

class AsyncReader;      // storage/async_io.h
class StorageTopology;  // storage/topology.h

/// Read-side I/O counters, reset-able between experiment phases.
struct StoreStats {
  uint64_t bucket_reads = 0;
  uint64_t bytes_read = 0;
  uint64_t objects_read = 0;
};

/// Abstract bucket-granularity storage engine.
///
/// Threading contract: both drivers run the scheduler loop, and every join,
/// on one owner thread, and that thread makes every ReadBucket call
/// (directly, or through the BucketCache). An implementation MUST still
/// make ReadBucket safe to call concurrently with itself and with
/// ReadBucketForPrefetch (MemStore serves immutable in-memory pages;
/// FileStore reads pages with positional pread(2) calls that share no
/// mutable state): measured I/O mode reads off the owner thread, its
/// per-volume submission queues' I/O workers (storage/async_io.h) calling
/// ReadBucketForPrefetch while the owner reads, and the BucketCache may
/// call ReadBucket from whichever thread holds its lock.
/// ReadBucketForPrefetch never touches the stats counters: the owner
/// records the I/O when it consumes the bucket, via RecordPrefetchedRead,
/// keeping accounting deterministic. The counters themselves are atomic,
/// so stats recording is never the race.
class BucketStore {
 public:
  virtual ~BucketStore() = default;

  /// Number of buckets in the catalog.
  virtual size_t num_buckets() const = 0;

  /// The HTM-curve partitioning this store was built with.
  virtual const BucketMap& bucket_map() const = 0;

  /// Number of objects in bucket `index`, from catalog metadata — never
  /// performs I/O. The hybrid join strategy sizes its scan-vs-probe
  /// decision with this.
  virtual size_t BucketObjectCount(BucketIndex index) const = 0;

  /// Real encoded on-disk bytes of bucket `index`'s page, or 0 when the
  /// store has no encoded form (MemStore). Never performs I/O. The
  /// measured-mode reader bills completion bytes from it; the cost model
  /// does not read it (see ModeledBucketBytes).
  virtual uint64_t EncodedBucketBytes(BucketIndex index) const {
    (void)index;
    return 0;
  }

  /// The byte size the I/O cost model charges for moving bucket `index`:
  /// the paper's kBytesPerObject estimate, whatever the store holds. Every
  /// T_b consumer (scheduler U_t, evaluator, pipeline bets, eviction
  /// prices) prices through this, so the modeled clock is the same over
  /// MemStore and FileStore.
  uint64_t ModeledBucketBytes(BucketIndex index) const {
    return static_cast<uint64_t>(BucketObjectCount(index)) *
           Bucket::kBytesPerObject;
  }

  /// Reads bucket `index` in full. Returned buckets are immutable and
  /// shareable (the cache hands out the same pointer). Owner thread only.
  virtual Result<std::shared_ptr<const Bucket>> ReadBucket(
      BucketIndex index) = 0;

  /// True if ReadBucketForPrefetch is implemented and safe to call
  /// concurrently with owner-thread reads. Measured I/O mode reads through
  /// it on the submission queues' I/O workers, and is refused when this is
  /// false.
  virtual bool SupportsConcurrentReads() const { return false; }

  /// Reads bucket `index` WITHOUT recording I/O stats; the queued reader's
  /// I/O workers read every page through it. Must be safe to call from a
  /// worker thread concurrently with owner-thread ReadBucket calls
  /// whenever SupportsConcurrentReads() is true. The owner accounts the
  /// read via RecordPrefetchedRead when it consumes the bucket.
  virtual Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetch(
      BucketIndex index) {
    (void)index;
    return Status::Unimplemented("store does not support prefetch reads");
  }

  /// Forwards to ReadBucketForPrefetch and ignores `scratch`; nothing in
  /// the library calls it, and no store here overrides it. It stays, with
  /// the forward declaration of its pointer type above, only because the
  /// end-to-end benchmark's timing decorator (bench_e2e/tracing.h)
  /// overrides this virtual, and that code is kept unchanged so its
  /// numbers stay comparable across versions. Remove both together with
  /// that override.
  virtual Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetchScratch(
      BucketIndex index, util::Arena* scratch) {
    (void)scratch;
    return ReadBucketForPrefetch(index);
  }

  /// Opens an asynchronous read session: per-volume submission queues and
  /// I/O worker threads delivering completions to the caller's Poll()/
  /// Wait() (storage/async_io.h). The default is the queued reader over
  /// ReadBucketForPrefetch — it requires SupportsConcurrentReads().
  /// Override to substitute a fault-injection or device-specific backend.
  /// `topology` (nullable = one queue) and this store must outlive the
  /// returned reader.
  virtual std::unique_ptr<AsyncReader> NewAsyncReader(
      const StorageTopology* topology);

  /// Deferred accounting for a bucket obtained via ReadBucketForPrefetch;
  /// call exactly once per prefetched read, on the owner thread.
  void RecordPrefetchedRead(const Bucket& b) {
    stats_.bucket_reads.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(b.EstimatedBytes(), std::memory_order_relaxed);
    stats_.objects_read.fetch_add(b.size(), std::memory_order_relaxed);
  }

  /// Atomic snapshot of the read counters.
  StoreStats stats() const {
    StoreStats snapshot;
    snapshot.bucket_reads = stats_.bucket_reads.load(std::memory_order_relaxed);
    snapshot.bytes_read = stats_.bytes_read.load(std::memory_order_relaxed);
    snapshot.objects_read =
        stats_.objects_read.load(std::memory_order_relaxed);
    return snapshot;
  }
  void ResetStats() {
    stats_.bucket_reads.store(0, std::memory_order_relaxed);
    stats_.bytes_read.store(0, std::memory_order_relaxed);
    stats_.objects_read.store(0, std::memory_order_relaxed);
  }

 protected:
  void RecordRead(const Bucket& b) { RecordPrefetchedRead(b); }

  /// Atomic mirror of StoreStats (see the threading contract above).
  struct AtomicStoreStats {
    std::atomic<uint64_t> bucket_reads{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> objects_read{0};
  };
  AtomicStoreStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_STORE_H_
