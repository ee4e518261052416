// A bucket: one equal-sized, HTM-contiguous partition of the fact table.
// Buckets are LifeRaft's unit of I/O and of scheduling.
//
// A bucket is its catalog index plus one shared, parsed v2 page
// (storage/columnar.h) whose fixed-width columns the join kernels scan in
// place. Every store hands out this one form: file pages as read,
// partitioned catalogs encoded by ColumnarPage::Encode.

#ifndef LIFERAFT_STORAGE_BUCKET_H_
#define LIFERAFT_STORAGE_BUCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "htm/range_set.h"
#include "storage/columnar.h"

namespace liferaft::storage {

/// Index of a bucket within its catalog (0-based, in HTM-curve order).
using BucketIndex = uint32_t;

/// An HTM-contiguous run of catalog objects, sorted by HTM ID.
class Bucket {
 public:
  /// The bucket borrows nothing and copies nothing — it shares the parsed
  /// page (cache entries, in-flight prefetches, and scan slices all point
  /// at the same bytes).
  Bucket(BucketIndex index, std::shared_ptr<const ColumnarPage> page)
      : index_(index),
        range_(page->range()),
        size_(page->size()),
        page_(std::move(page)) {}

  /// Position of this bucket in its catalog (HTM-curve order).
  BucketIndex index() const { return index_; }
  /// Inclusive level-14 HTM ID range this bucket owns. Bucket ranges of a
  /// catalog tile the whole curve without gaps.
  const htm::IdRange& range() const { return range_; }
  /// Object count (the equal-count partitioning target).
  size_t size() const { return size_; }
  /// The objects, sorted by HTM ID, as columns.
  const ColumnarPage& page() const { return *page_; }

  /// Approximate in-memory/on-disk size. The paper's 10,000-object buckets
  /// are 40 MB, i.e. ~4 KB/object of full row payload; we model that ratio
  /// rather than sizeof(CatalogObject) so I/O-cost arithmetic matches the
  /// paper's regime.
  uint64_t EstimatedBytes() const {
    return static_cast<uint64_t>(size_) * kBytesPerObject;
  }

  /// Bytes per object used by EstimatedBytes().
  static constexpr uint64_t kBytesPerObject = 4096;

 private:
  BucketIndex index_;
  // Cached off the page: MemStore answers BucketObjectCount from size_,
  // and the scheduler prices every active bucket through that on each
  // pick.
  htm::IdRange range_;
  size_t size_;
  std::shared_ptr<const ColumnarPage> page_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_H_
