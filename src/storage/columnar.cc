#include "storage/columnar.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "geom/spherical.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace liferaft::storage {
namespace {

using Layout = ColumnarPageLayout;

void PokeFixed32(std::string* s, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*s)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Appends the low `width` bits of `v` to the little-endian bit stream
/// (`acc`/`nbits` carry the partial byte between calls; nbits < 8).
void AppendBits(std::string* out, uint64_t v, unsigned width, uint32_t* acc,
                unsigned* nbits) {
  unsigned done = 0;
  while (done < width) {
    const unsigned take = std::min<unsigned>(8 - *nbits, width - done);
    *acc |= static_cast<uint32_t>((v >> done) & ((uint64_t{1} << take) - 1))
            << *nbits;
    *nbits += take;
    done += take;
    if (*nbits == 8) {
      out->push_back(static_cast<char>(*acc));
      *acc = 0;
      *nbits = 0;
    }
  }
}

unsigned BitsFor(uint64_t v) {
  unsigned bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// Serializes `objects` as the v2 page of a bucket owning `range`.
std::string EncodePage(const htm::IdRange& range,
                       std::span<const CatalogObject> objects) {
  const uint32_t count = static_cast<uint32_t>(objects.size());
  std::string page(Layout::kHeaderBytes, '\0');
  PokeFixed32(&page, 0, Layout::kPageMagic);
  PokeFixed32(&page, 4, Layout::kPageVersion);
  PokeFixed32(&page, Layout::kCountOffset, count);
  {
    std::string fixed;
    PutFixed64(&fixed, range.lo);
    PutFixed64(&fixed, range.hi);
    page.replace(Layout::kRangeLoOffset, 16, fixed);
  }

  uint32_t col[6];

  // Sorted HTM-id column, delta + varint.
  col[0] = static_cast<uint32_t>(page.size());
  std::vector<uint64_t> ids;
  ids.reserve(count);
  for (const CatalogObject& o : objects) ids.push_back(o.htm_id);
  PutDeltaVarint64(&page, ids);

  // Object-id column: sequential runs (clustered-index catalogs) collapse
  // to just the base; anything else gets frame-of-reference bit packing.
  col[1] = static_cast<uint32_t>(page.size());
  const uint64_t base = count == 0 ? 0 : objects.front().object_id;
  bool sequential = true;
  uint64_t max_delta = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t oid = objects[i].object_id;
    if (oid != base + i) sequential = false;
    if (oid < base) sequential = false;  // guarded below by min-base scan
    max_delta = std::max(max_delta, oid - std::min(oid, base));
  }
  uint64_t for_base = base;
  if (!sequential) {
    for_base = UINT64_MAX;
    for (const CatalogObject& o : objects) {
      for_base = std::min(for_base, o.object_id);
    }
    if (count == 0) for_base = 0;
    max_delta = 0;
    for (const CatalogObject& o : objects) {
      max_delta = std::max(max_delta, o.object_id - for_base);
    }
  }
  if (sequential) {
    page[Layout::kOidEncodingOffset] =
        static_cast<char>(ObjectIdEncoding::kSequential);
    PutVarint64(&page, base);
  } else {
    page[Layout::kOidEncodingOffset] =
        static_cast<char>(ObjectIdEncoding::kPackedFor);
    PutVarint64(&page, for_base);
    const unsigned width = BitsFor(max_delta);
    page.push_back(static_cast<char>(width));
    uint32_t acc = 0;
    unsigned nbits = 0;
    for (const CatalogObject& o : objects) {
      AppendBits(&page, o.object_id - for_base, width, &acc, &nbits);
    }
    if (nbits > 0) page.push_back(static_cast<char>(acc));
  }

  // Zero padding so the f64 columns start 8-aligned relative to the page
  // (reads load whole pages into fresh 8-aligned buffers, so page-relative
  // alignment is buffer alignment).
  while (page.size() % 8 != 0) page.push_back('\0');

  col[2] = static_cast<uint32_t>(page.size());
  for (const CatalogObject& o : objects) PutDouble(&page, o.ra_deg);
  col[3] = static_cast<uint32_t>(page.size());
  for (const CatalogObject& o : objects) PutDouble(&page, o.dec_deg);
  col[4] = static_cast<uint32_t>(page.size());
  for (const CatalogObject& o : objects) PutFloat(&page, o.mag);
  col[5] = static_cast<uint32_t>(page.size());
  for (const CatalogObject& o : objects) PutFloat(&page, o.color);

  for (int c = 0; c < 6; ++c) {
    PokeFixed32(&page, Layout::kColumnOffsets + 4 * c, col[c]);
  }
  PokeFixed32(&page, Layout::kCrcOffsetField,
              static_cast<uint32_t>(page.size()));
  const uint32_t crc = Crc32(page.data(), page.size());
  PutFixed32(&page, crc);
  return page;
}

}  // namespace

Result<std::shared_ptr<const ColumnarPage>> ColumnarPage::Encode(
    const htm::IdRange& range, std::span<const CatalogObject> objects) {
  const std::string page = EncodePage(range, objects);
  std::unique_ptr<char[]> buf(new char[page.size()]);
  std::memcpy(buf.get(), page.data(), page.size());
  return Parse(std::move(buf), page.size());
}

Result<std::shared_ptr<const ColumnarPage>> ColumnarPage::Parse(
    std::unique_ptr<char[]> data, size_t size) {
  const char* p = data.get();
  auto corrupt = [](const std::string& what) {
    return Status::Corruption("columnar page: " + what);
  };
  if (size < Layout::kHeaderBytes + 4) return corrupt("page too small");
  if (GetFixed32(p) != Layout::kPageMagic) return corrupt("bad page magic");
  const uint32_t version = GetFixed32(p + 4);
  if (version != Layout::kPageVersion) {
    return corrupt("unsupported page version " + std::to_string(version));
  }
  const uint32_t crc_off = GetFixed32(p + Layout::kCrcOffsetField);
  if (crc_off < Layout::kHeaderBytes ||
      static_cast<uint64_t>(crc_off) + 4 != size) {
    return corrupt("truncated page");
  }
  if (Crc32(p, crc_off) != GetFixed32(p + crc_off)) {
    return corrupt("checksum mismatch");
  }

  const uint32_t count = GetFixed32(p + Layout::kCountOffset);
  const uint8_t oid_encoding =
      static_cast<uint8_t>(p[Layout::kOidEncodingOffset]);
  const uint64_t range_lo = GetFixed64(p + Layout::kRangeLoOffset);
  const uint64_t range_hi = GetFixed64(p + Layout::kRangeHiOffset);
  if (range_lo > range_hi) return corrupt("inverted bucket range");

  uint32_t col[6];
  for (int c = 0; c < 6; ++c) {
    col[c] = GetFixed32(p + Layout::kColumnOffsets + 4 * c);
  }
  // The fixed-width columns are adjacent by construction; pinning their
  // offsets to the count also bounds-checks them in one shot.
  const uint64_t n = count;
  if (col[0] < Layout::kHeaderBytes || col[1] < col[0] || col[2] < col[1] ||
      col[2] % 8 != 0 || col[3] != col[2] + 8 * n ||
      col[4] != col[3] + 8 * n || col[5] != col[4] + 4 * n ||
      static_cast<uint64_t>(crc_off) != col[5] + 4 * n) {
    return corrupt("column offsets out of bounds");
  }

  auto page = std::shared_ptr<ColumnarPage>(new ColumnarPage());
  page->encoded_bytes_ = size;
  page->range_ = htm::IdRange{range_lo, range_hi};

  // Id column: decode eagerly — the deltas are unsigned, so the decoded
  // sequence is monotone by construction (an encoded decrease wraps and
  // overflows the accumulator), and a corrupt column surfaces here
  // (truncated varints, ids out of order or escaping the bucket range)
  // instead of as wrong join results later.
  page->ids_.reserve(count);
  const char* ids_end =
      GetDeltaVarint64(p + col[0], p + col[1], count, &page->ids_);
  if (ids_end == nullptr || ids_end != p + col[1]) {
    return corrupt("bad id column (truncated, or ids out of order)");
  }
  if (count > 0 &&
      (page->ids_.front() < range_lo || page->ids_.back() > range_hi)) {
    return corrupt("id column outside bucket range (ordering violated)");
  }

  // Object-id column.
  const char* oid_p = p + col[1];
  const char* oid_limit = p + col[2];
  uint64_t oid_base = 0;
  oid_p = GetVarint64(oid_p, oid_limit, &oid_base);
  if (oid_p == nullptr) return corrupt("bad object-id base");
  page->oid_base_ = oid_base;
  if (oid_encoding == static_cast<uint8_t>(ObjectIdEncoding::kSequential)) {
    page->oid_encoding_ = ObjectIdEncoding::kSequential;
    if (count > 0 && oid_base > UINT64_MAX - (n - 1)) {
      return corrupt("sequential object-id overflow");
    }
  } else if (oid_encoding ==
             static_cast<uint8_t>(ObjectIdEncoding::kPackedFor)) {
    page->oid_encoding_ = ObjectIdEncoding::kPackedFor;
    if (oid_p >= oid_limit) return corrupt("missing object-id width");
    const uint8_t width = static_cast<uint8_t>(*oid_p++);
    if (width > 64) return corrupt("object-id width > 64");
    const uint64_t packed_bytes = (n * width + 7) / 8;
    if (static_cast<uint64_t>(oid_limit - oid_p) < packed_bytes) {
      return corrupt("object-id column truncated");
    }
    page->oid_width_ = width;
    page->oid_packed_ = oid_p;
  } else {
    return corrupt("unknown object-id encoding " +
                   std::to_string(oid_encoding));
  }

  page->pos_ready_.reset(new std::atomic<uint8_t>[
      (n + kPositionBlockRows - 1) / kPositionBlockRows]());
  page->ra_ = reinterpret_cast<const double*>(p + col[2]);
  page->dec_ = reinterpret_cast<const double*>(p + col[3]);
  page->mag_ = reinterpret_cast<const float*>(p + col[4]);
  page->color_ = reinterpret_cast<const float*>(p + col[5]);
  page->data_ = std::move(data);
  return std::shared_ptr<const ColumnarPage>(std::move(page));
}

uint64_t ColumnarPage::UnpackFor(size_t i) const {
  const unsigned width = oid_width_;
  if (width == 0) return 0;
  const size_t bit = i * width;
  size_t byte = bit >> 3;
  unsigned shift = bit & 7;
  uint64_t v = 0;
  unsigned got = 0;
  while (got < width) {
    const uint64_t b = static_cast<unsigned char>(oid_packed_[byte++]);
    v |= (b >> shift) << got;
    got += 8 - shift;
    shift = 0;
  }
  return width == 64 ? v : (v & ((uint64_t{1} << width) - 1));
}

void ColumnarPage::FillPositions(size_t first_block, size_t end_block) const {
  std::lock_guard<std::mutex> lock(pos_mu_);
  if (!pos_) {
    // Raw storage, not new Vec3[n]: Vec3's member initializers would write
    // (and so fault in) every page of the buffer up front.
    pos_.reset(static_cast<Vec3*>(::operator new(size() * sizeof(Vec3))));
  }
  Vec3* pos = pos_.get();
  for (size_t b = first_block; b < end_block; ++b) {
    if (pos_ready_[b].load(std::memory_order_relaxed) != 0) continue;
    const size_t first = b * kPositionBlockRows;
    const size_t last = std::min(first + kPositionBlockRows, size());
    for (size_t i = first; i < last; ++i) {
      ::new (pos + i) Vec3(SkyToUnitVector(SkyPoint{ra_[i], dec_[i]}));
    }
    pos_ready_[b].store(1, std::memory_order_release);
  }
}

std::pair<size_t, size_t> ColumnarPage::EqualRange(htm::HtmId lo,
                                                   htm::HtmId hi) const {
  auto first = std::lower_bound(ids_.begin(), ids_.end(), lo);
  auto last = std::upper_bound(ids_.begin(), ids_.end(), hi);
  return {static_cast<size_t>(first - ids_.begin()),
          static_cast<size_t>(last - ids_.begin())};
}

CatalogObject ColumnarPage::MaterializeObject(size_t i) const {
  assert(i < size());
  CatalogObject o;
  o.object_id = object_id(i);
  o.htm_id = ids_[i];
  o.ra_deg = ra_[i];
  o.dec_deg = dec_[i];
  o.pos = SkyToUnitVector(o.sky());
  o.mag = mag_[i];
  o.color = color_[i];
  return o;
}

}  // namespace liferaft::storage
