#include "storage/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "storage/columnar.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace liferaft::storage {
namespace {

constexpr char kHeaderMagic[8] = {'L', 'F', 'R', 'B', 'K', 'T', '0', '1'};
constexpr char kFooterMagic[8] = {'L', 'F', 'R', 'B', 'K', 'T', 'I', 'X'};
constexpr size_t kFileHeaderBytes = 8 + 4 + 8;
constexpr size_t kFooterBytes = 8 + 4 + 8;

/// O_DIRECT alignment for offset, length, and buffer address. 4096 covers
/// every mainstream logical block size.
constexpr uint64_t kDirectAlign = 4096;

/// Positional read of exactly [offset, offset+len) — a pread(2) loop, so
/// concurrent readers of one descriptor share no file position and no
/// lock.
Status PreadExact(int fd, uint64_t offset, void* buf, size_t len) {
  char* dst = static_cast<char*>(buf);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd, dst + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread failed: " + std::string(strerror(errno)));
    }
    if (n == 0) return Status::IOError("short read");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Frees posix_memalign memory (operator delete would be UB).
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

}  // namespace

FileStore::FileStore(int fd, bool direct_active, FileStoreOptions options,
                     std::string path, std::vector<uint64_t> offsets,
                     std::vector<uint64_t> page_sizes,
                     std::vector<uint32_t> counts,
                     std::shared_ptr<const BucketMap> map)
    : path_(std::move(path)),
      fd_(fd),
      direct_io_active_(direct_active),
      options_(options),
      offsets_(std::move(offsets)),
      page_sizes_(std::move(page_sizes)),
      counts_(std::move(counts)),
      map_(std::move(map)) {}

FileStore::~FileStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileStore::OpenReadFd(int* fd) const {
  int flags = O_RDONLY;
#ifdef O_CLOEXEC
  flags |= O_CLOEXEC;
#endif
  *fd = -1;
#ifdef O_DIRECT
  if (options_.use_direct_io && direct_io_active_) {
    *fd = ::open(path_.c_str(), flags | O_DIRECT);
  }
#endif
  if (*fd < 0) {
    *fd = ::open(path_.c_str(), flags);
  }
  if (*fd < 0) {
    return Status::IOError("cannot open " + path_ + ": " + strerror(errno));
  }
#ifdef POSIX_FADV_RANDOM
  if (options_.advise_random) {
    // Advisory only: a failure (e.g. tmpfs) costs nothing.
    (void)::posix_fadvise(*fd, 0, 0, POSIX_FADV_RANDOM);
  }
#endif
  return Status::OK();
}

Status FileStore::ReadSpan(uint64_t offset, char* dst, size_t len) const {
  if (!direct_io_active_) return PreadExact(fd_, offset, dst, len);
  // O_DIRECT: read the aligned window covering [offset, offset+len) into
  // an aligned bounce buffer, then copy out the requested span. The
  // window's tail may run past EOF (file sizes are not block-aligned), so
  // accept a short read as long as it covers the span.
  const uint64_t lo = offset & ~(kDirectAlign - 1);
  const uint64_t hi =
      (offset + len + kDirectAlign - 1) & ~(kDirectAlign - 1);
  const size_t span = static_cast<size_t>(hi - lo);
  // Per-thread grow-only scratch: each submission-queue worker (and the
  // owner's foreground path) reuses one aligned bounce buffer instead of
  // paying a multi-megabyte posix_memalign + page-fault churn on every
  // read. Thread-local because ReadSpan runs concurrently from every
  // volume's worker.
  thread_local std::unique_ptr<void, FreeDeleter> bounce;
  thread_local size_t bounce_cap = 0;
  if (bounce_cap < span) {
    void* raw = nullptr;
    if (posix_memalign(&raw, kDirectAlign, span) != 0) {
      return Status::IOError("posix_memalign failed for direct read");
    }
    bounce.reset(raw);
    bounce_cap = span;
  }
  char* p = static_cast<char*>(bounce.get());
  size_t done = 0;
  const size_t need = static_cast<size_t>(offset - lo) + len;
  while (done < need) {
    ssize_t n =
        ::pread(fd_, p + done, span - done, static_cast<off_t>(lo + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread(O_DIRECT) failed: " +
                             std::string(strerror(errno)));
    }
    if (n == 0) return Status::IOError("short read");
    done += static_cast<size_t>(n);
  }
  std::memcpy(dst, p + (offset - lo), len);
  return Status::OK();
}

Status FileStore::Create(const std::string& path,
                         const std::vector<Bucket>& buckets,
                         BucketFormat format) {
  if (buckets.empty()) {
    return Status::InvalidArgument("cannot create a store with no buckets");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create " + path + ": " + strerror(errno));
  }
  // Stream in bounded chunks so a multi-GB catalog never buffers whole in
  // RAM; `written` tracks flushed bytes so offsets stay absolute.
  uint64_t written = 0;
  std::string out;
  auto flush = [&]() -> bool {
    if (out.empty()) return true;
    if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) return false;
    written += out.size();
    out.clear();
    return true;
  };
  out.append(kHeaderMagic, sizeof(kHeaderMagic));
  PutFixed32(&out, static_cast<uint32_t>(format));
  PutFixed64(&out, buckets.size());

  std::vector<uint64_t> offsets;
  offsets.reserve(buckets.size());
  for (const Bucket& b : buckets) {
    offsets.push_back(written + out.size());
    out.append(b.page().bytes());
    if (out.size() >= (8u << 20) && !flush()) {
      std::fclose(f);
      return Status::IOError("write failed for " + path);
    }
  }

  uint64_t index_offset = written + out.size();
  std::string index;
  for (uint64_t off : offsets) PutFixed64(&index, off);
  uint32_t index_crc = Crc32(index.data(), index.size());
  out += index;
  PutFixed64(&out, index_offset);
  PutFixed32(&out, index_crc);
  out.append(kFooterMagic, sizeof(kFooterMagic));

  bool write_ok = flush();
  bool flush_ok = (std::fflush(f) == 0);
  // fsync before close: Create's contract is a durable catalog, and
  // leaving megabytes of dirty pages behind also makes a subsequent
  // O_DIRECT reader pay the writeback synchronously, one read at a time.
  bool sync_ok = (::fsync(::fileno(f)) == 0);
  std::fclose(f);
  if (!write_ok || !flush_ok || !sync_ok) {
    return Status::IOError("write failed for " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<FileStore>> FileStore::Open(
    const std::string& path, const FileStoreOptions& options) {
  // Metadata (header, footer, index, page headers) always reads through a
  // buffered descriptor; only bucket-page descriptors honor O_DIRECT.
  int meta_fd = ::open(path.c_str(), O_RDONLY);
  if (meta_fd < 0) {
    return Status::IOError("cannot open " + path + ": " + strerror(errno));
  }
  auto fail = [&](Status s) -> Result<std::unique_ptr<FileStore>> {
    ::close(meta_fd);
    return s;
  };

  // Size the file before reading either end of it, so a file too short
  // to hold a header and a footer is Corruption, not a short read.
  off_t end = ::lseek(meta_fd, 0, SEEK_END);
  if (end < 0) return fail(Status::IOError("seek"));
  const uint64_t file_size = static_cast<uint64_t>(end);
  if (file_size < kFileHeaderBytes + kFooterBytes) {
    return fail(Status::Corruption("file too small"));
  }

  // Header.
  char header[kFileHeaderBytes];
  Status st = PreadExact(meta_fd, 0, header, sizeof(header));
  if (!st.ok()) return fail(st);
  if (std::memcmp(header, kHeaderMagic, 8) != 0) {
    return fail(Status::Corruption("bad header magic in " + path));
  }
  const uint32_t version = GetFixed32(header + 8);
  if (version != static_cast<uint32_t>(BucketFormat::kColumnarV2)) {
    return fail(Status::Corruption("unsupported format version " +
                                   std::to_string(version) + " in " + path));
  }
  uint64_t num_buckets = GetFixed64(header + 12);
  if (num_buckets == 0) return fail(Status::Corruption("zero buckets"));

  // Footer.
  char footer[kFooterBytes];
  st = PreadExact(meta_fd, file_size - kFooterBytes, footer, kFooterBytes);
  if (!st.ok()) return fail(st);
  if (std::memcmp(footer + 12, kFooterMagic, 8) != 0) {
    return fail(Status::Corruption("bad footer magic in " + path));
  }
  uint64_t index_offset = GetFixed64(footer);
  uint32_t index_crc = GetFixed32(footer + 8);

  // Bound the header's bucket count by the file before sizing anything by
  // it: the index (8 bytes per bucket) must fit between the header and the
  // footer, and where the footer says it starts. Dividing keeps a huge
  // count from wrapping 8 * num_buckets.
  const uint64_t footer_offset = file_size - kFooterBytes;
  if (num_buckets > (footer_offset - kFileHeaderBytes) / 8) {
    return fail(Status::Corruption(
        "header claims " + std::to_string(num_buckets) +
        " buckets, more than " + path + " can index"));
  }
  const uint64_t index_bytes = num_buckets * 8;
  if (index_offset > footer_offset - index_bytes) {
    return fail(Status::Corruption("offset index runs past the footer in " +
                                   path));
  }

  // Offset index.
  std::string index(index_bytes, '\0');
  st = PreadExact(meta_fd, index_offset, index.data(), index.size());
  if (!st.ok()) return fail(st);
  if (Crc32(index.data(), index.size()) != index_crc) {
    return fail(Status::Corruption("index checksum mismatch in " + path));
  }
  std::vector<uint64_t> offsets(num_buckets);
  for (uint64_t i = 0; i < num_buckets; ++i) {
    offsets[i] = GetFixed64(index.data() + i * 8);
  }
  // Page sizes fall out of adjacent offsets (the last page ends where the
  // index starts). Monotone offsets are part of the format contract; a
  // violation means a corrupt index that happened to checksum clean.
  std::vector<uint64_t> page_sizes(num_buckets);
  for (uint64_t i = 0; i < num_buckets; ++i) {
    uint64_t page_end = i + 1 < num_buckets ? offsets[i + 1] : index_offset;
    if (offsets[i] < kFileHeaderBytes || page_end <= offsets[i] ||
        page_end > file_size) {
      return fail(Status::Corruption("non-monotone page offsets in " + path));
    }
    page_sizes[i] = page_end - offsets[i];
  }

  // Reconstruct the bucket map and cardinality metadata from the page
  // headers.
  std::vector<htm::HtmId> bounds(num_buckets);
  std::vector<uint32_t> counts(num_buckets);
  for (uint64_t i = 0; i < num_buckets; ++i) {
    char page_header[ColumnarPageLayout::kHeaderBytes];
    if (page_sizes[i] < sizeof(page_header)) {
      return fail(Status::Corruption("bucket " + std::to_string(i) +
                                     " page smaller than its header"));
    }
    st = PreadExact(meta_fd, offsets[i], page_header, sizeof(page_header));
    if (!st.ok()) return fail(st);
    bounds[i] = GetFixed64(page_header + ColumnarPageLayout::kRangeLoOffset);
    counts[i] = GetFixed32(page_header + ColumnarPageLayout::kCountOffset);
    // BucketMap only asserts its preconditions, and these bounds are read
    // before any page checksum: bucket 0 must start at the first
    // object-level id, and each later bound must ascend strictly inside
    // the level, as PartitionCatalog cuts them.
    const bool in_order =
        i == 0 ? bounds[0] == htm::LevelMin(htm::kObjectLevel)
               : bounds[i] > bounds[i - 1] &&
                     bounds[i] <= htm::LevelMax(htm::kObjectLevel);
    if (!in_order) {
      return fail(Status::Corruption("bucket " + std::to_string(i) +
                                     " range starts out of order in " + path));
    }
  }
  auto map = std::make_shared<const BucketMap>(std::move(bounds));

  // Probe O_DIRECT support once: tmpfs (and some network filesystems)
  // reject the flag, in which case reads silently fall back to buffered
  // I/O and direct_io_active() reports false.
  bool direct_active = false;
#ifdef O_DIRECT
  if (options.use_direct_io) {
    int probe = ::open(path.c_str(), O_RDONLY | O_DIRECT);
    if (probe >= 0) {
      direct_active = true;
      ::close(probe);
    }
  }
#endif

  auto store = std::unique_ptr<FileStore>(new FileStore(
      meta_fd, direct_active, options, path, std::move(offsets),
      std::move(page_sizes), std::move(counts), std::move(map)));
  // Re-open the read descriptor per the options (O_DIRECT / fadvise):
  // meta_fd was deliberately plain-buffered for the metadata pass above.
  if (direct_active || options.advise_random) {
    int fd = -1;
    Status open_st = store->OpenReadFd(&fd);
    if (!open_st.ok()) return open_st;
    ::close(store->fd_);
    store->fd_ = fd;
  }
  return store;
}

Result<std::shared_ptr<const Bucket>> FileStore::ReadBucket(
    BucketIndex index) {
  LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const Bucket> bucket,
                            ReadBucketPage(index));
  RecordRead(*bucket);
  return bucket;
}

Result<std::shared_ptr<const Bucket>> FileStore::ReadBucketForPrefetch(
    BucketIndex index) {
  return ReadBucketPage(index);
}

Result<std::shared_ptr<const Bucket>> FileStore::ReadBucketPage(
    BucketIndex index) {
  if (index >= offsets_.size()) {
    return Status::OutOfRange("bucket index out of range");
  }
  const uint64_t page_size = page_sizes_[index];
  // operator new[] aligns to max_align_t, which is what makes the in-place
  // f64 column spans legal; the pad inside the page does the rest.
  std::unique_ptr<char[]> buf(new char[page_size]);
  LIFERAFT_RETURN_IF_ERROR(ReadSpan(offsets_[index], buf.get(), page_size));
  auto page = ColumnarPage::Parse(std::move(buf), page_size);
  if (!page.ok()) {
    return Status::Corruption("bucket " + std::to_string(index) + ": " +
                              page.status().message());
  }
  return std::make_shared<const Bucket>(index, std::move(page).value());
}

}  // namespace liferaft::storage
