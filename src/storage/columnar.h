// The v2 columnar bucket page: one bucket's objects stored column-major in
// a single checksummed byte buffer, scanned in place by the join kernels.
//
// Page layout (all integers little-endian, offsets relative to page start):
//
//   [page header, 60 bytes]
//     0   page magic u32        "LFP2"
//     4   page version u32      = 2
//     8   object count u32
//     12  object-id encoding u8 | 3 zero pad bytes
//     16  range_lo u64 | range_hi u64       (inclusive HTM range)
//     32  column offsets u32 x 6: ids, object_id, ra, dec, mag, color
//     56  crc offset u32                    (== encoded payload end)
//   [ids column]      sorted HTM ids, delta + varint (util/coding.h)
//   [object_id column] kSequential: base varint64 (ids are base..base+n-1)
//                      kPackedFor:  base varint64 | bit width u8 | packed
//                                   little-endian (id - base) at `width`
//                                   bits each
//   [zero padding to the next 8-byte boundary]
//   [ra column]       count x f64   — 8-aligned, scanned zero-copy
//   [dec column]      count x f64   — 8-aligned, scanned zero-copy
//   [mag column]      count x f32   — 4-aligned, scanned zero-copy
//   [color column]    count x f32   — 4-aligned, scanned zero-copy
//   [page crc u32]    Crc32 (util/crc32.h) over [0, crc offset)
//
// The fixed-width position/attribute columns are stored raw so the page
// hands out std::span views straight off its bytes (little-endian hosts;
// the same assumption every fixed-width decode in util/coding.h optimizes
// to). Unit-vector positions are not stored: Positions() computes them
// from ra/dec in 64-row blocks, only for the blocks a join touches, with
// the same SkyToUnitVector(ra, dec) MakeObject runs, so a page built from
// objects joins bit for bit like the objects themselves.
//
// Every in-memory bucket is one of these pages: a file's page as read, or
// one built by Encode() (partitioned catalogs).
// Parse() validates structure, checksum, and the decoded id column (in
// range, and ascending: a decreasing id overflows the delta decode) and
// returns a clean Status on any corruption; no decoded state outlives a
// failed Parse.

#ifndef LIFERAFT_STORAGE_COLUMNAR_H_
#define LIFERAFT_STORAGE_COLUMNAR_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/vec3.h"
#include "htm/range_set.h"
#include "storage/object.h"
#include "util/status.h"

namespace liferaft::storage {

/// Byte offsets of the fixed page-header fields (shared with tests that
/// craft corrupt pages deliberately).
struct ColumnarPageLayout {
  static constexpr uint32_t kPageMagic = 0x3250464C;  // "LFP2"
  static constexpr uint32_t kPageVersion = 2;
  static constexpr size_t kCountOffset = 8;
  static constexpr size_t kOidEncodingOffset = 12;
  static constexpr size_t kRangeLoOffset = 16;
  static constexpr size_t kRangeHiOffset = 24;
  static constexpr size_t kColumnOffsets = 32;  // 6 x u32
  static constexpr size_t kCrcOffsetField = 56;
  static constexpr size_t kHeaderBytes = 60;
};

/// How the object_id column is encoded (header byte 12).
enum class ObjectIdEncoding : uint8_t {
  /// ids are exactly base..base+count-1 (clustered-index catalogs; the
  /// generator assigns ids in HTM-curve order, so every bucket — a
  /// contiguous slice of the curve — hits this). Payload: base varint64.
  kSequential = 0,
  /// Frame-of-reference bit packing: base varint64, bit width u8, then
  /// (id - base) packed little-endian at `width` bits each.
  kPackedFor = 1,
};

/// One parsed, validated, immutable columnar page. Owns the page bytes;
/// shared between the cache, in-flight prefetches, and every reader of a
/// MemStore bucket.
class ColumnarPage {
 public:
  /// Takes ownership of `data` (a full page of `size` bytes, 8-aligned as
  /// operator new[] guarantees) and validates everything up front.
  /// Positions are left to Positions(), which computes them per block.
  static Result<std::shared_ptr<const ColumnarPage>> Parse(
      std::unique_ptr<char[]> data, size_t size);

  /// Encodes `objects` as the page of a bucket owning `range`, then
  /// Parses it. The objects must be sorted by HTM id with every id inside
  /// `range`; input that is not fails Parse and comes back as Corruption.
  static Result<std::shared_ptr<const ColumnarPage>> Encode(
      const htm::IdRange& range, std::span<const CatalogObject> objects);

  size_t size() const { return ids_.size(); }
  const htm::IdRange& range() const { return range_; }
  /// The encoded page, exactly as a v2 file stores it.
  std::string_view bytes() const { return {data_.get(), encoded_bytes_}; }

  /// The decoded sorted HTM-id column (monotone non-decreasing, every id
  /// inside range()).
  std::span<const htm::HtmId> ids() const { return ids_; }

  /// Fixed-width columns, zero-copy views into the page bytes.
  std::span<const double> ra() const { return {ra_, size()}; }
  std::span<const double> dec() const { return {dec_, size()}; }
  std::span<const float> mag() const { return {mag_, size()}; }
  std::span<const float> color() const { return {color_, size()}; }

  /// Object id at row `i` (O(1) for both encodings; no materialized
  /// column).
  uint64_t object_id(size_t i) const {
    if (oid_encoding_ == ObjectIdEncoding::kSequential) return oid_base_ + i;
    return oid_base_ + UnpackFor(i);
  }

  /// Rows per lazily filled position block.
  static constexpr size_t kPositionBlockRows = 64;

  /// Unit-vector positions of rows [first, last), bit-identical to
  /// MakeObject's pos; an empty window returns an empty span. Computes
  /// only the kPositionBlockRows-row blocks the window overlaps that no
  /// earlier call filled, so a join pays only for the blocks it scans.
  /// Thread-safe: a page is one shared const object (MemStore hands the
  /// same page to every reader, so drivers over one catalog on different
  /// threads scan it at once). The fast path is one
  /// acquire load per block; a miss fills the window's missing blocks
  /// under the page's mutex. The span stays valid for the page's
  /// lifetime.
  std::span<const Vec3> Positions(size_t first, size_t last) const {
    assert(last <= size());
    if (first >= last) return {};
    const size_t end_block = (last - 1) / kPositionBlockRows + 1;
    for (size_t b = first / kPositionBlockRows; b < end_block; ++b) {
      if (pos_ready_[b].load(std::memory_order_acquire) == 0) {
        FillPositions(b, end_block);
        break;
      }
    }
    // Every block of the window is ready, so pos_ was set before a
    // release store this thread acquired (or under the mutex it held).
    return {pos_.get() + first, last - first};
  }

  /// Row index window [first, last) of ids in [lo, hi] (binary search on
  /// the sorted id column).
  std::pair<size_t, size_t> EqualRange(htm::HtmId lo, htm::HtmId hi) const;

  /// Row `i` as a CatalogObject (index builds, tools, tests). Computes its
  /// own position and fills no position block.
  CatalogObject MaterializeObject(size_t i) const;

 private:
  ColumnarPage() = default;

  uint64_t UnpackFor(size_t i) const;

  /// Slow path of Positions(): under pos_mu_, allocates pos_ if this is the
  /// page's first miss, then fills and publishes every block in
  /// [first_block, end_block) not yet ready.
  void FillPositions(size_t first_block, size_t end_block) const;

  /// Frees pos_ as the raw storage FillPositions allocates (Vec3 is
  /// trivially destructible, so no element destructor runs).
  struct RawDelete {
    void operator()(Vec3* p) const { ::operator delete(p); }
  };

  std::unique_ptr<char[]> data_;
  uint64_t encoded_bytes_ = 0;
  htm::IdRange range_{0, 0};
  std::vector<htm::HtmId> ids_;
  ObjectIdEncoding oid_encoding_ = ObjectIdEncoding::kSequential;
  uint64_t oid_base_ = 0;
  uint8_t oid_width_ = 0;
  const char* oid_packed_ = nullptr;
  const double* ra_ = nullptr;
  const double* dec_ = nullptr;
  const float* mag_ = nullptr;
  const float* color_ = nullptr;

  /// One byte per kPositionBlockRows-row block, set (release) once the
  /// block's positions are written; allocated zeroed by Parse.
  std::unique_ptr<std::atomic<uint8_t>[]> pos_ready_;
  /// Guards pos_ and the filling of blocks; readers that see a block
  /// ready read it without the lock.
  mutable std::mutex pos_mu_;
  /// size() positions as raw storage, allocated at the first miss so a
  /// page no join scans never holds it; blocks not ready are unwritten.
  mutable std::unique_ptr<Vec3, RawDelete> pos_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_COLUMNAR_H_
