// File-backed BucketStore: a single packed file of checksummed bucket pages
// plus a trailing offset index.
//
// File layout (all integers little-endian):
//
//   [header]   magic "LFRBKT01" (8) | format version u32 | num_buckets u64
//   [bucket]*  one page per bucket, format per the version field
//   [index]    num_buckets * offset u64 (byte offset of each bucket page)
//   [footer]   index_offset u64 | index_crc u32 | magic "LFRBKTIX" (8)
//
// Version 1 (row) pages:
//
//   [bucket]   range_lo u64 | range_hi u64 | count u32 |
//              count * record | payload_crc u32
//   [record]   object_id u64 | htm_id u64 | ra f64 | dec f64 |
//              mag f32 | color f32        (40 bytes)
//
// Version 2 (columnar) pages are the self-describing checksummed pages of
// storage/columnar.h: delta+varint HTM-id column, compressed object-id
// column, raw fixed-width position/attribute columns scanned zero-copy.
// Open() auto-detects the version from the file header; a store holds pages
// of one version only. Buckets come back in one form either way: a v2 page
// as read, a v1 page transcoded by ColumnarPage::Encode.
//
// The unit-vector position is recomputed from ra/dec at load time rather
// than stored, keeping records compact and making the file byte-stable
// across platforms.

#ifndef LIFERAFT_STORAGE_FILE_STORE_H_
#define LIFERAFT_STORAGE_FILE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/bucket_store.h"

namespace liferaft::storage {

/// On-disk bucket page format, selectable at write time and auto-detected
/// at read time. Values match the file header's version field.
enum class BucketFormat : uint32_t {
  kRowV1 = 1,
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

  /// Serializes a partitioned catalog to `path` in the given format,
  /// overwriting any existing file. v2 writes each bucket's page verbatim.
  static Status Create(const std::string& path,
                       const std::vector<Bucket>& buckets,
                       BucketFormat format = BucketFormat::kRowV1);

  /// Opens an existing store, validating magic, version (1 or 2), the
  /// bucket count against the file's size (before allocating the offset
  /// index), and the index checksum.
  static Result<std::unique_ptr<FileStore>> Open(
      const std::string& path, const FileStoreOptions& options = {});

  /// The page format this store was written with.
  BucketFormat format() const { return static_cast<BucketFormat>(version_); }

  /// True when O_DIRECT was requested AND the filesystem accepted it.
  bool direct_io_active() const { return direct_io_active_; }

  size_t num_buckets() const override { return offsets_.size(); }
  const BucketMap& bucket_map() const override { return *map_; }
  size_t BucketObjectCount(BucketIndex index) const override {
    return index < counts_.size() ? counts_[index] : 0;
  }
  /// Real on-disk page size in bytes (both formats; derived from the
  /// offset index at Open).
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
            std::string path, uint32_t version, std::vector<uint64_t> offsets,
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

  /// The raw read+checksum+decode of one bucket page — one ReadSpan of the
  /// whole page; records no stats. A v1 page that fails the transcode
  /// returns Corruption.
  Result<std::shared_ptr<const Bucket>> ReadBucketPage(BucketIndex index);

  /// v2: one whole-page read handed to ColumnarPage::Parse. Any
  /// corruption — truncation, checksum, bad columns — comes back as a
  /// clean Status naming the bucket.
  Result<std::shared_ptr<const Bucket>> ReadColumnarPage(BucketIndex index);

  std::string path_;
  /// The one read descriptor every page read shares (pread needs no
  /// per-reader position).
  int fd_ = -1;
  bool direct_io_active_ = false;
  FileStoreOptions options_;
  uint32_t version_ = 1;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> page_sizes_;
  std::vector<uint32_t> counts_;
  std::shared_ptr<const BucketMap> map_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_FILE_STORE_H_
