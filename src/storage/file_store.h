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
#include "storage/topology.h"

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

  /// Opens an existing store, validating magic, version (1 or 2), and
  /// index checksum.
  static Result<std::unique_ptr<FileStore>> Open(
      const std::string& path, const FileStoreOptions& options = {});

  /// Routes page I/O per volume (the multi-arm topology): each volume gets
  /// its own read descriptor, so per-volume kernel state (file description,
  /// fadvise hints, O_DIRECT) stays independent — physically independent
  /// arms. Every read is a positional pread(2), so reads never serialize,
  /// neither across volumes nor within one; the one-arm-per-volume cost is
  /// the async submission queue's job (storage/async_io.h), not a lock's.
  /// Call during setup; the topology is borrowed and must outlive the
  /// store (pass null to restore the single shared descriptor).
  Status AttachTopology(const StorageTopology* topology);

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
  /// Every page read is one positional pread(2) on the bucket's volume
  /// descriptor: no file-position state, no I/O mutex, so prefetch reads,
  /// owner reads, and async-queue reads all proceed fully concurrently —
  /// across volumes and within one.
  bool SupportsConcurrentReads() const override { return true; }
  Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetch(
      BucketIndex index) override;
  /// Uses `scratch` for the page decode buffer (NoShare worker reads).
  Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetchScratch(
      BucketIndex index, util::Arena* scratch) override;

  /// Per-volume async submission queues over this store's descriptors
  /// (storage/async_io.h). `topology` may be null (single queue).
  std::unique_ptr<AsyncReader> NewAsyncReader(
      const StorageTopology* topology) override;

 private:
  FileStore(int fd, bool direct_active, FileStoreOptions options,
            std::string path, uint32_t version, std::vector<uint64_t> offsets,
            std::vector<uint64_t> page_sizes, std::vector<uint32_t> counts,
            std::shared_ptr<const BucketMap> map);

  /// Opens one read descriptor per this store's options (O_DIRECT with
  /// buffered fallback, optional fadvise). On success `*fd` is owned by
  /// the caller.
  Status OpenReadFd(int* fd) const;

  /// Positional read of [offset, offset+len) on `fd`, honoring
  /// direct_io_active_ (aligned bounce-buffer window read under O_DIRECT,
  /// plain pread loop otherwise).
  Status ReadSpan(int fd, uint64_t offset, char* dst, size_t len) const;

  /// The raw read+checksum+decode of one bucket page — one ReadSpan of the
  /// whole page on the bucket's volume descriptor; records no stats.
  /// `scratch`, when non-null, backs the transient v1 page buffer and its
  /// decoded records (pages live on in the returned bucket, so they always
  /// own their bytes on the heap). A v1 page that fails the transcode
  /// returns Corruption.
  Result<std::shared_ptr<const Bucket>> ReadBucketPage(BucketIndex index,
                                                       util::Arena* scratch);

  /// v2: one whole-page read handed to ColumnarPage::Parse. Any
  /// corruption — truncation, checksum, bad columns — comes back as a
  /// clean Status naming the bucket.
  Result<std::shared_ptr<const Bucket>> ReadColumnarPage(BucketIndex index,
                                                         int fd);

  int FdFor(BucketIndex index) const {
    return fds_[topology_ != nullptr ? topology_->VolumeOf(index) % fds_.size()
                                     : 0];
  }

  std::string path_;
  /// fds_[0] holds the descriptor Open created; AttachTopology adds one
  /// per additional volume.
  std::vector<int> fds_;
  bool direct_io_active_ = false;
  FileStoreOptions options_;
  const StorageTopology* topology_ = nullptr;
  uint32_t version_ = 1;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> page_sizes_;
  std::vector<uint32_t> counts_;
  std::shared_ptr<const BucketMap> map_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_FILE_STORE_H_
