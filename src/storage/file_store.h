// File-backed BucketStore: a single packed file of checksummed bucket pages
// plus a trailing offset index.
//
// File layout (all integers little-endian):
//
//   [header]   magic "LFRBKT01" (8) | format version u32 (2) | num_buckets u64
//   [bucket]*  one columnar page per bucket
//   [index]    num_buckets * offset u64 (byte offset of each bucket page)
//   [footer]   index_offset u64 | index_crc u32 | magic "LFRBKTIX" (8)
//
// Pages are the self-describing checksummed pages of storage/columnar.h:
// delta+varint HTM-id column, compressed object-id column, raw fixed-width
// position/attribute columns scanned zero-copy. A read hands the page
// bytes to ColumnarPage::Parse as they are. Open() rejects any other
// version with Corruption naming it; an archive in the retired row format
// (version 1) is rebuilt with `liferaft_tool gen-catalog`.
//
// The unit-vector position is recomputed from ra/dec when a join first
// touches it rather than stored, keeping pages compact and making the file
// byte-stable across platforms.

#ifndef LIFERAFT_STORAGE_FILE_STORE_H_
#define LIFERAFT_STORAGE_FILE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/bucket_store.h"

namespace liferaft::storage {

/// On-disk bucket page format; the value is the file header's version
/// field. There is one format. The enum, and Create's argument of its type,
/// stay only because the end-to-end benchmark (bench_e2e/bench_e2e.cc)
/// passes kColumnarV2 to Create, and that code is kept unchanged so its
/// numbers stay comparable across versions. Remove both together with
/// that call's argument.
enum class BucketFormat : uint32_t {
  kColumnarV2 = 2,
};

/// Read-side tuning knobs, fixed at Open time.
struct FileStoreOptions {
  /// Open read descriptors with O_DIRECT so page reads bypass the kernel
  /// page cache and genuinely block in the device queue — the honest
  /// setting for wall-clock I/O measurement. Falls back to buffered I/O
  /// (observable via direct_io_active()) on filesystems that reject the
  /// flag, e.g. tmpfs.
  bool use_direct_io = false;
  /// posix_fadvise(POSIX_FADV_RANDOM) on every read descriptor: bucket
  /// page access under the scheduler is random, so kernel readahead only
  /// pollutes the page cache.
  bool advise_random = false;
};

/// Bucket store reading from the packed-file format above. Bucket pages are
/// read (and checksum-verified) on every ReadBucket call; caching is the
/// BucketCache's job, exactly as in the paper where bucket caching is
/// "managed independently of the database server".
class FileStore : public BucketStore {
 public:
  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  /// Serializes a partitioned catalog to `path`, overwriting any existing
  /// file: each bucket's page verbatim. `format` has one value (see
  /// BucketFormat).
  static Status Create(const std::string& path,
                       const std::vector<Bucket>& buckets,
                       BucketFormat format = BucketFormat::kColumnarV2);

  /// Opens an existing store, validating magic, version (2; any other,
  /// the row format's 1 included, is Corruption naming it), the bucket
  /// count against the file's size (before allocating the offset index),
  /// the index checksum, and the page headers' bounds.
  static Result<std::unique_ptr<FileStore>> Open(
      const std::string& path, const FileStoreOptions& options = {});

  /// True when O_DIRECT was requested AND the filesystem accepted it.
  bool direct_io_active() const { return direct_io_active_; }

  size_t num_buckets() const override { return offsets_.size(); }
  const BucketMap& bucket_map() const override { return *map_; }
  size_t BucketObjectCount(BucketIndex index) const override {
    return index < counts_.size() ? counts_[index] : 0;
  }
  /// Real on-disk page size in bytes (derived from the offset index at
  /// Open).
  uint64_t EncodedBucketBytes(BucketIndex index) const override {
    return index < page_sizes_.size() ? page_sizes_[index] : 0;
  }
  Result<std::shared_ptr<const Bucket>> ReadBucket(BucketIndex index) override;
  /// Every page read is one positional pread(2) on the store's one read
  /// descriptor: no file-position state, no I/O mutex, so prefetch reads,
  /// owner reads, and async-queue reads all proceed fully concurrently.
  bool SupportsConcurrentReads() const override { return true; }
  Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetch(
      BucketIndex index) override;

 private:
  FileStore(int fd, bool direct_active, FileStoreOptions options,
            std::string path, std::vector<uint64_t> offsets,
            std::vector<uint64_t> page_sizes, std::vector<uint32_t> counts,
            std::shared_ptr<const BucketMap> map);

  /// Opens one read descriptor per this store's options (O_DIRECT with
  /// buffered fallback, optional fadvise). On success `*fd` is owned by
  /// the caller.
  Status OpenReadFd(int* fd) const;

  /// Positional read of [offset, offset+len) on fd_, honoring
  /// direct_io_active_ (aligned bounce-buffer window read under O_DIRECT,
  /// plain pread loop otherwise).
  Status ReadSpan(uint64_t offset, char* dst, size_t len) const;

  /// The raw read+checksum+decode of one bucket page: one ReadSpan of the
  /// whole page handed to ColumnarPage::Parse; records no stats. Any
  /// corruption (truncation, checksum, bad columns) comes back as a clean
  /// Status naming the bucket.
  Result<std::shared_ptr<const Bucket>> ReadBucketPage(BucketIndex index);

  std::string path_;
  /// The one read descriptor every page read shares (pread needs no
  /// per-reader position).
  int fd_ = -1;
  bool direct_io_active_ = false;
  FileStoreOptions options_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> page_sizes_;
  std::vector<uint32_t> counts_;
  std::shared_ptr<const BucketMap> map_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_FILE_STORE_H_
