#include "storage/catalog.h"

#include <algorithm>

#include "storage/partitioner.h"

namespace liferaft::storage {

Result<std::unique_ptr<Catalog>> Catalog::Build(
    std::vector<CatalogObject> objects, const CatalogOptions& options) {
  if (options.objects_per_bucket == 0) {
    return Status::InvalidArgument("objects_per_bucket must be > 0");
  }
  auto catalog = std::unique_ptr<Catalog>(new Catalog());
  catalog->num_objects_ = objects.size();

  std::optional<std::vector<CatalogObject>> index_copy;
  if (options.build_index) {
    index_copy = objects;  // keep a copy for the index before moving
  }

  LIFERAFT_ASSIGN_OR_RETURN(
      PartitionResult partition,
      PartitionCatalog(std::move(objects), options.objects_per_bucket));
  catalog->store_ = std::make_unique<MemStore>(std::move(partition));

  if (index_copy.has_value()) {
    std::sort(index_copy->begin(), index_copy->end(), ObjectHtmLess);
    LIFERAFT_ASSIGN_OR_RETURN(BTreeIndex index,
                              BTreeIndex::BulkLoad(std::move(*index_copy)));
    catalog->index_ = std::move(index);
  }
  return catalog;
}

Result<std::unique_ptr<Catalog>> Catalog::FromStore(
    std::unique_ptr<BucketStore> store, bool build_index) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must not be null");
  }
  auto catalog = std::unique_ptr<Catalog>(new Catalog());
  catalog->store_ = std::move(store);

  size_t num_objects = 0;
  for (BucketIndex b = 0; b < catalog->store_->num_buckets(); ++b) {
    num_objects += catalog->store_->BucketObjectCount(b);
  }
  catalog->num_objects_ = num_objects;

  if (build_index) {
    std::vector<CatalogObject> objects;
    objects.reserve(num_objects);
    for (BucketIndex b = 0; b < catalog->store_->num_buckets(); ++b) {
      LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const Bucket> bucket,
                                catalog->store_->ReadBucket(b));
      const ColumnarPage& page = bucket->page();
      for (size_t i = 0; i < page.size(); ++i) {
        objects.push_back(page.MaterializeObject(i));
      }
    }
    // Buckets arrive in curve order with sorted contents, but re-sort in
    // case a store implementation relaxes that.
    std::sort(objects.begin(), objects.end(), ObjectHtmLess);
    LIFERAFT_ASSIGN_OR_RETURN(BTreeIndex index,
                              BTreeIndex::BulkLoad(std::move(objects)));
    catalog->index_ = std::move(index);
    // The index build read every bucket; start runs with a clean ledger.
    catalog->store_->ResetStats();
  }
  return catalog;
}

}  // namespace liferaft::storage
