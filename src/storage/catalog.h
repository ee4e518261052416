// Catalog: one archive's partitioned fact table plus its optional spatial
// index. This is the "database" a LifeRaft instance schedules against.

#ifndef LIFERAFT_STORAGE_CATALOG_H_
#define LIFERAFT_STORAGE_CATALOG_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/btree.h"
#include "storage/bucket_store.h"
#include "storage/mem_store.h"
#include "util/status.h"

namespace liferaft::storage {

/// Catalog construction options.
struct CatalogOptions {
  /// Objects per bucket (paper: 10,000). Must be > 0.
  size_t objects_per_bucket = 1000;
  /// Build the B+tree spatial index (required for the hybrid join's indexed
  /// path; IndexOnly and hybrid scheduling need it).
  bool build_index = true;
};

/// An immutable partitioned archive with optional B+tree index. Build()
/// partitions in-memory objects into a MemStore; FromStore() wraps any
/// already-built BucketStore (e.g. an opened FileStore), so the simulation
/// engine runs unchanged over file-backed catalogs.
class Catalog {
 public:
  /// Partitions `objects` and builds the store (and index if requested).
  static Result<std::unique_ptr<Catalog>> Build(
      std::vector<CatalogObject> objects, const CatalogOptions& options);

  /// Wraps an existing store. When `build_index` is set, every bucket is
  /// read back once to bulk-load the B+tree (the store's I/O counters are
  /// reset afterwards so runs start with a clean ledger).
  static Result<std::unique_ptr<Catalog>> FromStore(
      std::unique_ptr<BucketStore> store, bool build_index = true);

  /// The archive's bucket store (owned by the catalog).
  BucketStore* store() { return store_.get(); }
  const BucketStore* store() const { return store_.get(); }
  /// The HTM-curve partitioning the store was built with.
  const BucketMap& bucket_map() const { return store_->bucket_map(); }
  size_t num_buckets() const { return store_->num_buckets(); }
  size_t num_objects() const { return num_objects_; }

  /// Null if build_index was false.
  const BTreeIndex* index() const {
    return index_.has_value() ? &*index_ : nullptr;
  }

 private:
  Catalog() = default;

  std::unique_ptr<BucketStore> store_;
  std::optional<BTreeIndex> index_;
  size_t num_objects_ = 0;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_CATALOG_H_
