// In-memory BucketStore. The catalog's bucket pages are encoded once and
// served by shared pointer; the simulator charges modeled I/O time when a
// read would have gone to disk.

#ifndef LIFERAFT_STORAGE_MEM_STORE_H_
#define LIFERAFT_STORAGE_MEM_STORE_H_

#include <memory>
#include <vector>

#include "storage/bucket_store.h"

namespace liferaft::storage {

/// BucketStore over in-memory bucket pages. It reports no encoded size, so
/// byte-priced consumers charge the kBytesPerObject estimate.
class MemStore : public BucketStore {
 public:
  /// Takes ownership of a partitioned catalog.
  explicit MemStore(PartitionResult partition);

  size_t num_buckets() const override { return buckets_.size(); }
  const BucketMap& bucket_map() const override { return *map_; }
  size_t BucketObjectCount(BucketIndex index) const override {
    return index < buckets_.size() ? buckets_[index]->size() : 0;
  }
  /// Buckets are immutable shared pointers and the stats
  /// counters are atomic, so ReadBucket is safe from any thread with no
  /// locking at all — the cache stress test leans on this.
  Result<std::shared_ptr<const Bucket>> ReadBucket(BucketIndex index) override;
  /// A prefetch worker hands a bucket out with no synchronization at
  /// all.
  bool SupportsConcurrentReads() const override { return true; }
  Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetch(
      BucketIndex index) override;

 private:
  std::shared_ptr<const BucketMap> map_;
  std::vector<std::shared_ptr<const Bucket>> buckets_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_MEM_STORE_H_
