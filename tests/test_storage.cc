// Tests for the storage substrate: objects, buckets, the equal-count
// partitioner, disk cost model, mem/file stores (round trip + corruption
// detection), the B+tree index, and the bucket cache with its priced
// (GreedyDual) eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <list>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "storage/btree.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "storage/columnar.h"
#include "storage/disk_model.h"
#include "htm/trixel.h"
#include "storage/file_store.h"
#include "storage/mem_store.h"
#include "storage/partitioner.h"
#include "storage/topology.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"

namespace liferaft::storage {
namespace {

// Generates n objects scattered uniformly over the sky, ids 0..n-1.
std::vector<CatalogObject> RandomObjects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CatalogObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360),
               std::asin(rng.UniformDouble(-1, 1)) * kRadToDeg};
    objects.push_back(MakeObject(i, p, 15.0f + static_cast<float>(i % 10),
                                 static_cast<float>(i % 5) * 0.2f));
  }
  return objects;
}

// ---------------------------------------------------------------- Object --

TEST(ObjectTest, MakeObjectAssignsLevel14Id) {
  CatalogObject o = MakeObject(7, {123.4, -56.7}, 18.5f, 0.3f);
  EXPECT_EQ(o.object_id, 7u);
  EXPECT_EQ(htm::LevelOf(o.htm_id), htm::kObjectLevel);
  EXPECT_TRUE(htm::Trixel::FromId(o.htm_id).Contains(o.pos));
  EXPECT_NEAR(o.pos.Norm(), 1.0, 1e-12);
  EXPECT_FLOAT_EQ(o.mag, 18.5f);
}

TEST(ObjectTest, OrderingIsTotal) {
  CatalogObject a = MakeObject(1, {10, 10});
  CatalogObject b = MakeObject(2, {10, 10});  // same position, higher id
  EXPECT_TRUE(ObjectHtmLess(a, b));
  EXPECT_FALSE(ObjectHtmLess(b, a));
}

// ---------------------------------------------------------------- Bucket --

const htm::IdRange kFullCurve{htm::LevelMin(htm::kObjectLevel),
                              htm::LevelMax(htm::kObjectLevel)};

// One bucket owning the whole curve, over objects sorted by HTM id.
Bucket WholeCurveBucket(const std::vector<CatalogObject>& objects) {
  auto page = ColumnarPage::Encode(kFullCurve, objects);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return Bucket(0, std::move(*page));
}

TEST(BucketTest, EqualRangeBinarySearch) {
  auto objects = RandomObjects(500, 101);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  const Bucket b = WholeCurveBucket(objects);
  const ColumnarPage& page = b.page();

  htm::HtmId mid = objects[250].htm_id;
  auto [first, last] = page.EqualRange(mid, mid);
  EXPECT_GE(last - first, 1u);
  for (size_t i = first; i < last; ++i) EXPECT_EQ(page.ids()[i], mid);

  auto all = page.EqualRange(kFullCurve.lo, kFullCurve.hi);
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, objects.size());

  auto none = page.EqualRange(kFullCurve.lo, objects.front().htm_id - 1);
  EXPECT_EQ(none.first, none.second);
}

TEST(BucketTest, EncodeRejectsObjectsOutOfOrderOrRange) {
  auto objects = RandomObjects(50, 105);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  ASSERT_TRUE(ColumnarPage::Encode(kFullCurve, objects).ok());

  auto swapped = objects;
  std::swap(swapped.front(), swapped.back());
  auto unsorted = ColumnarPage::Encode(kFullCurve, swapped);
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kCorruption);

  const htm::IdRange narrow{objects.front().htm_id + 1, kFullCurve.hi};
  auto outside = ColumnarPage::Encode(narrow, objects);
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kCorruption);
}

TEST(BucketTest, EstimatedBytesMatchesPaperScale) {
  // 10,000 objects -> ~40 MB, the paper's bucket size.
  auto objects = RandomObjects(100, 103);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  const Bucket b = WholeCurveBucket(objects);
  EXPECT_EQ(b.EstimatedBytes(), 100u * Bucket::kBytesPerObject);
  EXPECT_NEAR(10000.0 * Bucket::kBytesPerObject / (1024.0 * 1024.0), 40.0,
              1.0);
}

// ----------------------------------------------------------- Partitioner --

TEST(PartitionerTest, RejectsBadInput) {
  EXPECT_FALSE(PartitionCatalog({}, 10).ok());
  EXPECT_FALSE(PartitionCatalog(RandomObjects(10, 1), 0).ok());
}

TEST(PartitionerTest, EqualSizedBuckets) {
  auto result = PartitionCatalog(RandomObjects(10000, 107), 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets.size(), 10u);
  for (size_t i = 0; i + 1 < result->buckets.size(); ++i) {
    // All but possibly the last bucket hold exactly the target count
    // (duplicate HTM IDs could overflow, but random sky positions at level
    // 14 collide essentially never).
    EXPECT_EQ(result->buckets[i].size(), 1000u);
  }
}

TEST(PartitionerTest, BucketsTileTheCurve) {
  auto result = PartitionCatalog(RandomObjects(5000, 109), 500);
  ASSERT_TRUE(result.ok());
  const BucketMap& map = *result->map;
  EXPECT_EQ(map.RangeOf(0).lo, htm::LevelMin(htm::kObjectLevel));
  EXPECT_EQ(map.RangeOf(static_cast<BucketIndex>(map.num_buckets() - 1)).hi,
            htm::LevelMax(htm::kObjectLevel));
  for (size_t i = 0; i + 1 < map.num_buckets(); ++i) {
    EXPECT_EQ(map.RangeOf(static_cast<BucketIndex>(i)).hi + 1,
              map.RangeOf(static_cast<BucketIndex>(i + 1)).lo)
        << "gap or overlap between buckets " << i << " and " << i + 1;
  }
}

TEST(PartitionerTest, EveryObjectInItsBucketRange) {
  auto result = PartitionCatalog(RandomObjects(3000, 113), 250);
  ASSERT_TRUE(result.ok());
  size_t total = 0;
  for (const auto& b : result->buckets) {
    total += b.size();
    for (htm::HtmId id : b.page().ids()) {
      EXPECT_TRUE(b.range().Contains(id));
      EXPECT_EQ(result->map->BucketOf(id), b.index());
    }
  }
  EXPECT_EQ(total, 3000u);
}

TEST(PartitionerTest, BucketOfIsConsistentWithRanges) {
  auto result = PartitionCatalog(RandomObjects(2000, 127), 100);
  ASSERT_TRUE(result.ok());
  const BucketMap& map = *result->map;
  Rng rng(131);
  for (int i = 0; i < 2000; ++i) {
    htm::HtmId id = htm::LevelMin(htm::kObjectLevel) +
                    rng.UniformU64(htm::LevelMax(htm::kObjectLevel) -
                                   htm::LevelMin(htm::kObjectLevel) + 1);
    BucketIndex idx = map.BucketOf(id);
    EXPECT_TRUE(map.RangeOf(idx).Contains(id));
  }
}

TEST(PartitionerTest, BucketsOverlappingSpansCorrectRun) {
  auto result = PartitionCatalog(RandomObjects(2000, 137), 200);
  ASSERT_TRUE(result.ok());
  const BucketMap& map = *result->map;
  auto r3 = map.RangeOf(3);
  auto r5 = map.RangeOf(5);
  auto [lo, hi] = map.BucketsOverlapping(r3.lo + 1, r5.lo);
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 5u);
}

// ------------------------------------------------------------ Disk model --

TEST(DiskModelTest, DefaultsMatchPaperConstants) {
  DiskModel model;
  ASSERT_TRUE(model.params().Validate().ok());
  // T_b for a 40 MB bucket should be ~1.2 seconds.
  double tb = model.SequentialReadMs(40ull * 1024 * 1024);
  EXPECT_NEAR(tb, 1200.0, 60.0);
  // T_m = 0.13 ms per object.
  EXPECT_DOUBLE_EQ(model.MatchMs(1000), 130.0);
}

TEST(DiskModelTest, ScanJoinChargesTbOnlyWhenNotCached) {
  DiskModel model;
  uint64_t bytes = 40ull * 1024 * 1024;
  double cached = model.ScanJoinMs(bytes, 500, /*bucket_cached=*/true);
  double uncached = model.ScanJoinMs(bytes, 500, /*bucket_cached=*/false);
  EXPECT_DOUBLE_EQ(cached, model.MatchMs(500));
  EXPECT_DOUBLE_EQ(uncached, model.SequentialReadMs(bytes) + cached);
}

TEST(DiskModelTest, HybridBreakEvenNearThreePercent) {
  // With default calibration, indexed join beats scan below ~3% of a
  // 10,000-object bucket and loses above it (paper Fig 2).
  DiskModel model;
  uint64_t bucket_bytes = 10000ull * Bucket::kBytesPerObject;
  uint64_t small_queue = 100;   // 1%
  uint64_t large_queue = 1000;  // 10%
  EXPECT_LT(model.IndexedJoinMs(small_queue),
            model.ScanJoinMs(bucket_bytes, small_queue, false));
  EXPECT_GT(model.IndexedJoinMs(large_queue),
            model.ScanJoinMs(bucket_bytes, large_queue, false));
}

TEST(DiskModelTest, ValidateRejectsBadParams) {
  DiskModelParams p;
  p.transfer_mb_per_s = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskModelParams{};
  p.match_ms_per_object = -1;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskModelParams{};
  p.index_probe_ms = 0;
  EXPECT_FALSE(p.Validate().ok());
}

// ---------------------------------------------------------------- Stores --

TEST(MemStoreTest, ReadsBackAllBuckets) {
  auto partition = PartitionCatalog(RandomObjects(1000, 139), 100);
  ASSERT_TRUE(partition.ok());
  MemStore store(std::move(*partition));
  EXPECT_EQ(store.num_buckets(), 10u);
  size_t total = 0;
  for (BucketIndex i = 0; i < store.num_buckets(); ++i) {
    auto bucket = store.ReadBucket(i);
    ASSERT_TRUE(bucket.ok());
    EXPECT_EQ((*bucket)->index(), i);
    total += (*bucket)->size();
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(store.stats().bucket_reads, 10u);
  EXPECT_EQ(store.stats().objects_read, 1000u);
}

TEST(MemStoreTest, OutOfRangeIndex) {
  auto partition = PartitionCatalog(RandomObjects(100, 149), 50);
  ASSERT_TRUE(partition.ok());
  MemStore store(std::move(*partition));
  EXPECT_EQ(store.ReadBucket(99).status().code(), StatusCode::kOutOfRange);
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("liferaft_store_test_" + std::to_string(::getpid()) + ".lfr");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

// Bit-exact, not approximately equal: the file/memory identity claims
// depend on round-tripped doubles, and the positions recomputed from
// them, having the input's bits.
void ExpectBitIdentical(const CatalogObject& got, const CatalogObject& want) {
  EXPECT_EQ(got.object_id, want.object_id);
  EXPECT_EQ(got.htm_id, want.htm_id);
  EXPECT_EQ(got.ra_deg, want.ra_deg);
  EXPECT_EQ(got.dec_deg, want.dec_deg);
  EXPECT_EQ(got.mag, want.mag);
  EXPECT_EQ(got.color, want.color);
  EXPECT_EQ(got.pos.x, want.pos.x);
  EXPECT_EQ(got.pos.y, want.pos.y);
  EXPECT_EQ(got.pos.z, want.pos.z);
}

TEST_F(FileStoreTest, RoundTripPreservesEverything) {
  auto objects = RandomObjects(2000, 151);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  auto partition = PartitionCatalog(objects, 250);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());

  auto store = FileStore::Open(path_.string());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->num_buckets(), partition->buckets.size());

  size_t next = 0;  // buckets hold consecutive runs of the sorted input
  for (BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    auto bucket = (*store)->ReadBucket(i);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    const Bucket& loaded = **bucket;
    const Bucket& original = partition->buckets[i];
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.range(), original.range());
    for (size_t j = 0; j < loaded.size(); ++j) {
      ExpectBitIdentical(loaded.page().MaterializeObject(j), objects[next++]);
    }
  }
  EXPECT_EQ(next, objects.size());
  // Bucket map reconstructed identically.
  const BucketMap& m1 = (*store)->bucket_map();
  const BucketMap& m2 = *partition->map;
  ASSERT_EQ(m1.num_buckets(), m2.num_buckets());
  for (size_t i = 0; i < m1.num_buckets(); ++i) {
    EXPECT_EQ(m1.RangeOf(static_cast<BucketIndex>(i)),
              m2.RangeOf(static_cast<BucketIndex>(i)));
  }
}

TEST_F(FileStoreTest, DetectsPayloadCorruption) {
  auto partition = PartitionCatalog(RandomObjects(500, 157), 100);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());

  // Flip a byte in the middle of the file (inside some bucket payload).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char c;
    f.seekg(200);
    f.get(c);
    f.seekp(200);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  auto store = FileStore::Open(path_.string());
  ASSERT_TRUE(store.ok());  // index is intact
  bool corruption_seen = false;
  for (BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    auto bucket = (*store)->ReadBucket(i);
    if (!bucket.ok()) {
      EXPECT_EQ(bucket.status().code(), StatusCode::kCorruption);
      corruption_seen = true;
    }
  }
  EXPECT_TRUE(corruption_seen);
}

TEST_F(FileStoreTest, RejectsTruncatedFile) {
  auto partition = PartitionCatalog(RandomObjects(300, 163), 100);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());
  std::filesystem::resize_file(path_, 64);
  EXPECT_FALSE(FileStore::Open(path_.string()).ok());
}

TEST_F(FileStoreTest, RejectsBadMagic) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "definitely not a liferaft bucket store file, padded to 64 bytes..";
  }
  auto r = FileStore::Open(path_.string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(FileStoreTest, CreateRejectsEmpty) {
  EXPECT_FALSE(FileStore::Create(path_.string(), {}).ok());
}

// Curve-ordered catalog (ids follow the HTM curve, as workload::
// GenerateCatalog produces): every bucket is a contiguous id run, the
// layout the sequential object-id encoding is built for.
std::vector<CatalogObject> CurveOrderedObjects(size_t n, uint64_t seed) {
  std::vector<CatalogObject> objects = RandomObjects(n, seed);
  std::stable_sort(objects.begin(), objects.end(),
                   [](const CatalogObject& a, const CatalogObject& b) {
                     return a.htm_id < b.htm_id;
                   });
  for (size_t i = 0; i < objects.size(); ++i) objects[i].object_id = i;
  return objects;
}

TEST_F(FileStoreTest, ColumnarRoundTripIsBitExact) {
  const auto objects = CurveOrderedObjects(2000, 151);  // sorted
  auto partition = PartitionCatalog(objects, 250);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());

  auto store = FileStore::Open(path_.string());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ((*store)->num_buckets(), partition->buckets.size());

  size_t next = 0;  // buckets hold consecutive runs of the sorted input
  for (BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    auto bucket = (*store)->ReadBucket(i);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    const Bucket& loaded = **bucket;
    const Bucket& original = partition->buckets[i];
    // The file holds the partition's pages verbatim.
    EXPECT_EQ((*store)->EncodedBucketBytes(i), loaded.page().bytes().size());
    EXPECT_EQ(loaded.page().bytes(), original.page().bytes());
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.range(), original.range());
    const ColumnarPage& page = loaded.page();
    const std::span<const Vec3> pos = page.Positions(0, page.size());
    for (size_t j = 0; j < loaded.size(); ++j, ++next) {
      ExpectBitIdentical(page.MaterializeObject(j), objects[next]);
      // The kernels' position column too.
      EXPECT_EQ(pos[j].x, objects[next].pos.x);
      EXPECT_EQ(pos[j].y, objects[next].pos.y);
      EXPECT_EQ(pos[j].z, objects[next].pos.z);
    }
  }
  EXPECT_EQ(next, objects.size());
}

TEST_F(FileStoreTest, ColumnarHandlesNonSequentialIds) {
  // Generation-order ids (not curve order): the object-id column falls
  // back to the packed-FOR encoding and must still round-trip exactly.
  auto partition = PartitionCatalog(RandomObjects(800, 173), 100);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());
  auto store = FileStore::Open(path_.string());
  ASSERT_TRUE(store.ok());
  for (BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    auto bucket = (*store)->ReadBucket(i);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    for (size_t j = 0; j < (*bucket)->size(); ++j) {
      EXPECT_EQ((*bucket)->page().object_id(j),
                partition->buckets[i].page().object_id(j));
    }
  }
}

// Corruption fixture: writes a small store (three pages) and exposes
// byte surgery on its pages; page 0 starts right after the 20-byte file
// header.
class ColumnarCorruptionTest : public FileStoreTest {
 protected:
  static constexpr size_t kFileHeaderBytes = 20;

  void WriteStore() {
    auto partition = PartitionCatalog(CurveOrderedObjects(300, 163), 100);
    ASSERT_TRUE(partition.ok());
    ASSERT_TRUE(FileStore::Create(path_.string(), partition->buckets).ok());
  }

  std::string ReadFile() {
    std::ifstream f(path_, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  void WriteFile(const std::string& bytes) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Byte offset of page i, from the offset index the footer points at.
  static size_t PageOffset(const std::string& bytes, size_t i) {
    constexpr size_t kFooterBytes = 20;
    const uint64_t index_offset =
        GetFixed64(bytes.data() + bytes.size() - kFooterBytes);
    return GetFixed64(bytes.data() + index_offset + 8 * i);
  }

  // Size of the page at byte `at` = its crc-offset field + 4.
  size_t PageSize(const std::string& bytes, size_t at = kFileHeaderBytes) {
    return GetFixed32(bytes.data() + at + ColumnarPageLayout::kCrcOffsetField) +
           4;
  }

  // Recomputes the trailing crc of the page at byte `at` after surgery so
  // a test exercises exactly one validation failure, not the checksum
  // catch-all.
  void FixPageCrc(std::string* bytes, size_t at = kFileHeaderBytes) {
    size_t page_size = PageSize(*bytes, at);
    uint32_t crc = Crc32(bytes->data() + at, page_size - 4);
    std::string fixed;
    PutFixed32(&fixed, crc);
    bytes->replace(at + page_size - 4, 4, fixed);
  }

  // The corrupted bucket 0 read, as a status.
  Status ReadBucket0() {
    auto store = FileStore::Open(path_.string());
    if (!store.ok()) return store.status();
    return (*store)->ReadBucket(0).status();
  }
};

TEST_F(ColumnarCorruptionTest, FlippedByteFailsChecksum) {
  WriteStore();
  std::string bytes = ReadFile();
  // Flip one byte in the middle of page 0's payload.
  bytes[kFileHeaderBytes + 100] =
      static_cast<char>(bytes[kFileHeaderBytes + 100] ^ 0xFF);
  WriteFile(bytes);
  Status s = ReadBucket0();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
}

TEST_F(ColumnarCorruptionTest, FlippedCrcByteFailsChecksum) {
  WriteStore();
  std::string bytes = ReadFile();
  size_t crc_pos = kFileHeaderBytes + PageSize(bytes) - 4;
  bytes[crc_pos] = static_cast<char>(bytes[crc_pos] ^ 0x01);
  WriteFile(bytes);
  Status s = ReadBucket0();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
}

TEST_F(ColumnarCorruptionTest, UnknownPageVersionIsRejected) {
  WriteStore();
  std::string bytes = ReadFile();
  std::string version;
  PutFixed32(&version, 9);  // an unknown future version
  bytes.replace(kFileHeaderBytes + 4, 4, version);
  FixPageCrc(&bytes);  // valid checksum: the version check must fire
  WriteFile(bytes);
  Status s = ReadBucket0();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
}

TEST_F(ColumnarCorruptionTest, TruncatedPageIsRejected) {
  WriteStore();
  std::string bytes = ReadFile();
  // Shrink page 0's crc-offset field: the page now claims to end before
  // the bytes the index says it spans.
  std::string crc_off;
  PutFixed32(&crc_off, ColumnarPageLayout::kHeaderBytes);
  bytes.replace(kFileHeaderBytes + ColumnarPageLayout::kCrcOffsetField, 4,
                crc_off);
  WriteFile(bytes);
  Status s = ReadBucket0();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.ToString();
}

TEST_F(ColumnarCorruptionTest, IdColumnOutsideRangeIsRejected) {
  WriteStore();
  std::string bytes = ReadFile();
  // Shrink the page's declared range so the decoded (still monotone) id
  // column violates containment — the ordering/containment check fires
  // with a clean error instead of handing out a misfiled bucket.
  std::string range_hi;
  PutFixed64(&range_hi, GetFixed64(bytes.data() + kFileHeaderBytes +
                                   ColumnarPageLayout::kRangeLoOffset));
  bytes.replace(kFileHeaderBytes + ColumnarPageLayout::kRangeHiOffset, 8,
                range_hi);
  FixPageCrc(&bytes);
  WriteFile(bytes);
  Status s = ReadBucket0();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("range"), std::string::npos) << s.ToString();
}

TEST_F(ColumnarCorruptionTest, UnknownFileVersionIsRejected) {
  WriteStore();
  std::string bytes = ReadFile();
  std::string version;
  PutFixed32(&version, 7);
  bytes.replace(8, 4, version);  // file-header version field
  WriteFile(bytes);
  auto store = FileStore::Open(path_.string());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
}

// Open sizes the offset index by the header's bucket count, so it must
// check that count against the file first. The inputs: 2^40 (an 8 TiB
// index), 2^61 (8 * count wraps to 0), one bucket more than the bytes
// between header and footer can index, and a count that fits there but
// runs the index from its footer-given offset past the end of the file.
TEST_F(ColumnarCorruptionTest, BucketCountTheFileCannotHoldIsRejected) {
  WriteStore();
  const std::string intact = ReadFile();
  constexpr size_t kFooterBytes = 20;
  const uint64_t index_offset =
      GetFixed64(intact.data() + intact.size() - kFooterBytes);
  const uint64_t between = intact.size() - kFileHeaderBytes - kFooterBytes;
  const uint64_t past_eof = (intact.size() - index_offset) / 8 + 1;
  ASSERT_LE(past_eof, between / 8);
  for (uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 61,
                           between / 8 + 1, past_eof}) {
    SCOPED_TRACE("claimed buckets: " + std::to_string(claimed));
    std::string bytes = intact;
    std::string count;
    PutFixed64(&count, claimed);
    bytes.replace(12, 8, count);  // file-header bucket count
    WriteFile(bytes);
    auto store = FileStore::Open(path_.string());
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kCorruption)
        << store.status().ToString();
  }
}

// Open builds the bucket map from the page headers' range_lo before any
// page checksum is read, and BucketMap only asserts that the bounds start
// at LevelMin(14) and ascend. Each case rewrites one page's range_lo to a
// value that still holds the page's ids and recomputes that page's crc,
// so the page itself parses cleanly and only Open's check can refuse it:
// a bound repeating the one before, a bound below the one before, and
// bucket 0 starting below LevelMin(14).
TEST_F(ColumnarCorruptionTest, BucketBoundsOutOfOrderAreRejected) {
  WriteStore();
  const std::string intact = ReadFile();
  const auto range_lo = [&](size_t bucket) {
    return GetFixed64(intact.data() + PageOffset(intact, bucket) +
                      ColumnarPageLayout::kRangeLoOffset);
  };
  struct Case {
    const char* name;
    size_t bucket;
    uint64_t range_lo;
  };
  const uint64_t below_level = htm::LevelMin(htm::kObjectLevel) - 1;
  for (const Case& c : {Case{"repeated", 2, range_lo(1)},
                        Case{"decreasing", 2, range_lo(1) - 1},
                        Case{"first", 0, below_level}}) {
    SCOPED_TRACE(c.name);
    std::string bytes = intact;
    const size_t at = PageOffset(bytes, c.bucket);
    std::string lo;
    PutFixed64(&lo, c.range_lo);
    bytes.replace(at + ColumnarPageLayout::kRangeLoOffset, 8, lo);
    FixPageCrc(&bytes, at);
    const size_t page_size = PageSize(bytes, at);
    std::unique_ptr<char[]> page(new char[page_size]);
    std::memcpy(page.get(), bytes.data() + at, page_size);
    ASSERT_TRUE(ColumnarPage::Parse(std::move(page), page_size).ok());
    WriteFile(bytes);

    const Status st = FileStore::Open(path_.string()).status();
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("bucket " + std::to_string(c.bucket)),
              std::string::npos)
        << st.ToString();
  }
}

// ------------------------------------------------ FileStore::Open mutants --

// Open reads the file header, the footer, the offset index and every page
// header before any page checksum, so no mutant of those bytes may crash
// or throw: it opens, or it fails with Corruption (a file too short for a
// header and a footer included). Mutations of the
// three-page store: random file-header bytes (magic, version, bucket
// count), index entries nudged or overwritten, random footer bytes, a
// page header's range_lo or count rewritten, and truncation (half the
// time with the footer put back). Seven mutants in eight get the index crc
// recomputed over the span the (possibly mutated) header and footer point
// at, so the bound checks behind the crc run; a rewritten page header gets
// its page crc back half the time, so its read reaches the page checks.
// Every bucket of a store that opens must read OK, with the object count
// Open reported, or fail with Corruption. tools/ci.sh --asan runs this,
// where a read past a buffer traps.
class FileStoreOpenMutationTest : public ColumnarCorruptionTest {
 protected:
  static constexpr size_t kFooterBytes = 20;
};

TEST_F(FileStoreOpenMutationTest, MutantsOpenOrFailWithAStatus) {
  using Layout = ColumnarPageLayout;
  WriteStore();
  const std::string intact = ReadFile();
  const uint64_t num_buckets = GetFixed64(intact.data() + 12);
  const uint64_t index_offset =
      GetFixed64(intact.data() + intact.size() - kFooterBytes);
  ASSERT_EQ(num_buckets, 3u);

  const auto poke32 = [](std::string* b, size_t at, uint32_t v) {
    std::string field;
    PutFixed32(&field, v);
    b->replace(at, 4, field);
  };
  const auto poke64 = [](std::string* b, size_t at, uint64_t v) {
    std::string field;
    PutFixed64(&field, v);
    b->replace(at, 8, field);
  };

  constexpr int kMutants = 4000;
  Rng rng(1231);
  int opened = 0;
  int reads_failed = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = intact;
    const int edits = 1 + static_cast<int>(rng.UniformU64(3));
    switch (rng.UniformU64(5)) {
      case 0:  // file header: magic, version, bucket count
        for (int e = 0; e < edits; ++e) {
          bytes[rng.UniformU64(kFileHeaderBytes)] =
              static_cast<char>(rng.Next());
        }
        break;
      case 1: {  // an index entry nudged by a few bytes, or anything
        const size_t at = index_offset + 8 * rng.UniformU64(num_buckets);
        const uint64_t offset = GetFixed64(bytes.data() + at);
        poke64(&bytes, at,
               rng.Bernoulli(0.5)
                   ? offset + static_cast<uint64_t>(rng.UniformInt(-64, 64))
                   : rng.Next() >> (8 * rng.UniformU64(8)));
        break;
      }
      case 2:  // footer: index offset, index crc, magic
        for (int e = 0; e < edits; ++e) {
          bytes[bytes.size() - kFooterBytes +
                rng.UniformU64(kFooterBytes)] = static_cast<char>(rng.Next());
        }
        break;
      case 3: {  // a page header's range_lo or count, crc fixed half the time
        const size_t at = PageOffset(bytes, rng.UniformU64(num_buckets));
        if (rng.Bernoulli(0.5)) {
          const uint64_t lo = GetFixed64(bytes.data() + at +
                                         Layout::kRangeLoOffset);
          poke64(&bytes, at + Layout::kRangeLoOffset,
                 rng.Bernoulli(0.5)
                     ? lo + static_cast<uint64_t>(rng.UniformInt(-2, 2))
                     : rng.Next());
        } else {
          const uint32_t count =
              GetFixed32(bytes.data() + at + Layout::kCountOffset);
          poke32(&bytes, at + Layout::kCountOffset,
                 rng.Bernoulli(0.5)
                     ? count + static_cast<uint32_t>(rng.UniformInt(-3, 3))
                     : static_cast<uint32_t>(rng.Next()));
        }
        if (rng.Bernoulli(0.5)) FixPageCrc(&bytes, at);
        break;
      }
      default: {  // truncation, half the time with the footer put back
        const bool keep_footer = rng.Bernoulli(0.5);
        bytes.resize(rng.UniformU64(bytes.size()));
        if (keep_footer) bytes += intact.substr(intact.size() - kFooterBytes);
        break;
      }
    }
    // The index crc over the span the header and footer now name, when
    // that span lies between the header and the footer.
    if (bytes.size() >= kFileHeaderBytes + kFooterBytes &&
        rng.UniformU64(8) != 0) {
      const size_t footer = bytes.size() - kFooterBytes;
      const uint64_t count = GetFixed64(bytes.data() + 12);
      const uint64_t start = GetFixed64(bytes.data() + footer);
      if (count <= footer / 8 && start >= kFileHeaderBytes &&
          start <= footer - 8 * count) {
        poke32(&bytes, footer + 8, Crc32(bytes.data() + start, 8 * count));
      }
    }
    WriteFile(bytes);

    SCOPED_TRACE("mutant " + std::to_string(m));
    auto store = FileStore::Open(path_.string());
    if (!store.ok()) {
      ASSERT_EQ(store.status().code(), StatusCode::kCorruption)
          << store.status().ToString();
      continue;
    }
    ++opened;
    for (BucketIndex b = 0; b < (*store)->num_buckets(); ++b) {
      auto bucket = (*store)->ReadBucket(b);
      if (!bucket.ok()) {
        ASSERT_EQ(bucket.status().code(), StatusCode::kCorruption)
            << "bucket " << b << ": " << bucket.status().ToString();
        ++reads_failed;
        continue;
      }
      ASSERT_EQ((*bucket)->size(), (*store)->BucketObjectCount(b));
    }
  }
  // Every outcome occurs: mutants are refused, open, and fail a read.
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, kMutants);
  EXPECT_GT(reads_failed, 0);
}

// The retired row format wrote version 1 in the file header. Such a file
// is refused by name, not parsed as pages of the one format; an archive
// in it is rebuilt with `liferaft_tool gen-catalog`.
TEST_F(FileStoreOpenMutationTest, VersionOneFileIsRejectedNamingTheVersion) {
  WriteStore();
  std::string bytes = ReadFile();
  std::string version;
  PutFixed32(&version, 1);
  bytes.replace(8, 4, version);  // file-header version field
  WriteFile(bytes);
  const Status st = FileStore::Open(path_.string()).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("version 1"), std::string::npos)
      << st.ToString();
}

// ----------------------------------------------------------------- BTree --

TEST(BTreeTest, RejectsUnsortedInput) {
  auto objects = RandomObjects(100, 167);  // unsorted
  // Force an inversion in case randomness sorted it.
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  std::swap(objects.front(), objects.back());
  EXPECT_FALSE(BTreeIndex::BulkLoad(objects).ok());
}

TEST(BTreeTest, RangeLookupMatchesLinearScan) {
  auto objects = RandomObjects(20000, 173);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  auto tree = BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());

  Rng rng(179);
  for (int trial = 0; trial < 50; ++trial) {
    size_t a = rng.UniformU64(objects.size());
    size_t b = rng.UniformU64(objects.size());
    htm::HtmId lo = std::min(objects[a].htm_id, objects[b].htm_id);
    htm::HtmId hi = std::max(objects[a].htm_id, objects[b].htm_id);
    auto got = tree->RangeLookup(lo, hi);
    size_t expected = 0;
    for (const auto& o : objects) {
      expected += (o.htm_id >= lo && o.htm_id <= hi);
    }
    EXPECT_EQ(got.size(), expected);
    for (const auto& o : got) {
      EXPECT_GE(o.htm_id, lo);
      EXPECT_LE(o.htm_id, hi);
    }
  }
}

TEST(BTreeTest, EmptyRangeAndEmptyTree) {
  auto empty = BTreeIndex::BulkLoad({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->RangeLookup(0, UINT64_MAX).empty());

  auto objects = RandomObjects(100, 181);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  auto tree = BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());
  // lo > hi yields nothing.
  EXPECT_TRUE(tree->RangeLookup(100, 50).empty());
}

TEST(BTreeTest, ScanStatsCountLeaves) {
  auto objects = RandomObjects(10000, 191);
  std::sort(objects.begin(), objects.end(), ObjectHtmLess);
  auto tree = BTreeIndex::BulkLoad(objects);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_leaves(),
            (10000 + BTreeIndex::kLeafCapacity - 1) /
                BTreeIndex::kLeafCapacity);

  // Full scan touches every leaf.
  size_t seen = 0;
  auto stats = tree->RangeScan(0, UINT64_MAX,
                               [&](const CatalogObject&) { ++seen; });
  EXPECT_EQ(seen, 10000u);
  EXPECT_EQ(stats.matches, 10000u);
  EXPECT_EQ(stats.leaves_visited, tree->num_leaves());

  // A point lookup touches very few.
  auto one = tree->RangeScan(objects[5000].htm_id, objects[5000].htm_id,
                             [](const CatalogObject&) {});
  EXPECT_LE(one.leaves_visited, 2u);
  EXPECT_GE(one.matches, 1u);
}

// ----------------------------------------------------------------- Cache --

class CacheTestFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto partition = PartitionCatalog(RandomObjects(1000, 193), 100);
    ASSERT_TRUE(partition.ok());
    store_ = std::make_unique<MemStore>(std::move(*partition));
  }
  std::unique_ptr<MemStore> store_;
};

// Two arms at different rates under hash placement: even buckets live on
// the slow volume 0, odd buckets on the fast volume 1.
StorageTopology TwoPriceTopology(size_t num_buckets) {
  StorageTopologyConfig config;
  config.num_volumes = 2;
  config.placement = VolumePlacement::kHash;
  config.volume_disk.assign(2, DiskModelParams{});
  config.volume_disk[0].transfer_mb_per_s /= 2.0;
  auto topology =
      StorageTopology::Create(num_buckets, config, DiskModelParams{});
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  return std::move(*topology);
}

TEST_F(CacheTestFixture, HitsAndMisses) {
  BucketCache cache(store_.get(), 3);
  EXPECT_FALSE(cache.Contains(0));
  ASSERT_TRUE(cache.Get(0).ok());
  EXPECT_TRUE(cache.Contains(0));
  ASSERT_TRUE(cache.Get(0).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().HitRate(), 0.5, 1e-12);
}

TEST_F(CacheTestFixture, EvictsLeastRecentlyUsed) {
  BucketCache cache(store_.get(), 3);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  ASSERT_TRUE(cache.Get(2).ok());
  ASSERT_TRUE(cache.Get(0).ok());  // 0 is now MRU; LRU is 1
  ASSERT_TRUE(cache.Get(3).ok());  // evicts 1
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(CacheTestFixture, ContainsDoesNotPromote) {
  BucketCache cache(store_.get(), 2);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  // Interrogate residency of 0 (phi check) -- must NOT promote it.
  EXPECT_TRUE(cache.Contains(0));
  ASSERT_TRUE(cache.Get(2).ok());  // evicts 0, the true LRU
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
}

TEST_F(CacheTestFixture, SharedPointersStayValidAfterEviction) {
  BucketCache cache(store_.get(), 1);
  auto b0 = cache.Get(0);
  ASSERT_TRUE(b0.ok());
  ASSERT_TRUE(cache.Get(1).ok());  // evicts 0
  // The evicted bucket remains usable through the original shared_ptr.
  EXPECT_EQ((*b0)->index(), 0u);
  EXPECT_GT((*b0)->size(), 0u);
}

TEST_F(CacheTestFixture, ClearEmptiesCache) {
  BucketCache cache(store_.get(), 4);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(0));
}

// A Put hands over a bucket read elsewhere (measured mode's submission
// queues): a bucket that was not resident came from the store and counts
// one miss; the caller, not the cache, bills the read.
TEST_F(CacheTestFixture, PutCountsAMissOnlyForANewBucket) {
  BucketCache cache(store_.get(), 2);
  auto bucket = store_->ReadBucketForPrefetch(1);
  ASSERT_TRUE(bucket.ok());
  cache.Put(1, *bucket);
  cache.Put(1, *bucket);  // already resident: promotes, counts nothing
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  ASSERT_TRUE(cache.Get(1).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(store_->stats().bucket_reads, 0u);
}

// ------------------------------------------- Prefetch-aware eviction tier --

TEST_F(CacheTestFixture, PredictionWindowBucketSurvivesPressure) {
  BucketCache cache(store_.get(), 2);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());  // LRU order: 0 is the colder entry
  // 0 is inside the prediction window: eviction must demote it last, so
  // the pressure that would have evicted it takes the warmer 1 instead.
  cache.SetPredictionWindow(std::vector<BucketIndex>{0});
  ASSERT_TRUE(cache.Get(2).ok());
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.stats().evictions_protected, 0u);
}

TEST_F(CacheTestFixture, AllProtectedFallsBackToLruProtectedVictim) {
  BucketCache cache(store_.get(), 2);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  // Every resident entry is in the window: eviction cannot starve, so it
  // falls back to the LRU protected entry and records the conflict.
  cache.SetPredictionWindow(std::vector<BucketIndex>{0, 1});
  ASSERT_TRUE(cache.Get(2).ok());
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.stats().evictions_protected, 1u);
}

TEST_F(CacheTestFixture, EmptyWindowRestoresPlainLru) {
  BucketCache cache(store_.get(), 2);
  ASSERT_TRUE(cache.Get(0).ok());
  ASSERT_TRUE(cache.Get(1).ok());
  cache.SetPredictionWindow(std::vector<BucketIndex>{0});
  cache.SetPredictionWindow({});  // window replaced: protection gone
  ASSERT_TRUE(cache.Get(2).ok());
  EXPECT_FALSE(cache.Contains(0));  // plain LRU victim again
  EXPECT_EQ(cache.stats().evictions_protected, 0u);
}

// ------------------------------------------------------ Priced eviction --

// The cache's eviction before priced victims: LRU with the prediction
// window as a protected tier, kept here as the reference that equal
// prices must reproduce victim for victim.
class ReferenceLruCache {
 public:
  explicit ReferenceLruCache(size_t capacity) : capacity_(capacity) {}

  /// A Get or a Put: promote a resident bucket, else insert and evict.
  void Touch(BucketIndex b) {
    auto it = std::find(lru_.begin(), lru_.end(), b);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
    lru_.push_front(b);
    while (lru_.size() > capacity_) {
      // The LRU entry outside the window, else the LRU protected entry,
      // never the front while anything else is evictable.
      auto victim = lru_.end();
      auto protected_victim = lru_.end();
      for (auto e = std::prev(lru_.end()); e != lru_.begin(); --e) {
        if (window_.count(*e) == 0) {
          victim = e;
          break;
        }
        if (protected_victim == lru_.end()) protected_victim = e;
      }
      if (victim == lru_.end()) {
        victim = protected_victim != lru_.end() ? protected_victim
                                                : lru_.begin();
        if (window_.count(*victim) != 0) ++evictions_protected;
      }
      ++evictions;
      lru_.erase(victim);
    }
  }
  void SetWindow(const std::vector<BucketIndex>& window) {
    window_ = std::set<BucketIndex>(window.begin(), window.end());
  }
  bool Contains(BucketIndex b) const {
    return std::find(lru_.begin(), lru_.end(), b) != lru_.end();
  }

  uint64_t evictions = 0;
  uint64_t evictions_protected = 0;

 private:
  const size_t capacity_;
  std::list<BucketIndex> lru_;  // front = most recently used
  std::set<BucketIndex> window_;
};

// Equal prices — no topology, or volumes with one disk model — give
// exactly the victims of LRU plus the window tier over random
// Get/Put/window sequences.
TEST(PricedEvictionTest, EqualPricesReproduceLruVictims) {
  auto partition = PartitionCatalog(RandomObjects(1037, 211), 100);
  ASSERT_TRUE(partition.ok());
  MemStore store(std::move(*partition));
  const size_t buckets = store.num_buckets();
  constexpr size_t kCapacity = 4;

  StorageTopologyConfig uniform;
  uniform.num_volumes = 3;
  uniform.placement = VolumePlacement::kHash;
  auto topology = StorageTopology::Create(buckets, uniform, DiskModelParams{});
  ASSERT_TRUE(topology.ok());

  const StorageTopology* const none = nullptr;
  const StorageTopology* const equal_disks = &*topology;
  for (const StorageTopology* priced : {none, equal_disks}) {
    SCOPED_TRACE(priced ? "uniform topology" : "no topology");
    BucketCache cache(&store, kCapacity, priced);
    ReferenceLruCache reference(kCapacity);
    Rng rng(kCapacity);
    for (int op = 0; op < 3000; ++op) {
      const auto b = static_cast<BucketIndex>(rng.UniformU64(buckets));
      switch (rng.UniformU64(3)) {
        case 0:
          ASSERT_TRUE(cache.Get(b).ok());
          reference.Touch(b);
          break;
        case 1: {
          auto bucket = store.ReadBucketForPrefetch(b);
          ASSERT_TRUE(bucket.ok());
          cache.Put(b, *bucket);
          reference.Touch(b);
          break;
        }
        default: {
          std::vector<BucketIndex> window;
          for (uint64_t k = rng.UniformU64(7); k > 0; --k) {
            window.push_back(
                static_cast<BucketIndex>(rng.UniformU64(buckets)));
          }
          cache.SetPredictionWindow(window);
          reference.SetWindow(window);
          break;
        }
      }
      for (BucketIndex i = 0; i < buckets; ++i) {
        ASSERT_EQ(cache.Contains(i), reference.Contains(i))
            << "bucket " << i << " after op " << op;
      }
    }
    EXPECT_GT(reference.evictions, 0u);
    EXPECT_GT(reference.evictions_protected, 0u);
    EXPECT_EQ(cache.stats().evictions, reference.evictions);
    EXPECT_EQ(cache.stats().evictions_protected,
              reference.evictions_protected);
  }
}

// A re-read costs the slow arm more, so a fast-arm bucket leaves before a
// slow-arm bucket that is older (plain LRU would evict the older one).
TEST_F(CacheTestFixture, FastArmBucketIsEvictedBeforeAnOlderSlowArmOne) {
  const StorageTopology topology = TwoPriceTopology(store_->num_buckets());
  BucketCache cache(store_.get(), 2, &topology);
  ASSERT_TRUE(cache.Get(0).ok());  // slow arm, least recently used
  ASSERT_TRUE(cache.Get(1).ok());  // fast arm
  ASSERT_TRUE(cache.Get(3).ok());  // fast arm: evicts 1, not 0
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// Inflation: every eviction raises L, so fast-arm buckets touched later
// eventually outrank a slow-arm bucket that nothing touches, and it goes.
TEST_F(CacheTestFixture, InflationEvictsAnUntouchedSlowArmBucket) {
  const StorageTopology topology = TwoPriceTopology(store_->num_buckets());
  BucketCache cache(store_.get(), 2, &topology);
  ASSERT_TRUE(cache.Get(0).ok());  // slow arm, never touched again
  const BucketIndex fast[] = {1, 3, 5, 7, 9};
  size_t reads = 0;
  for (; reads < 50 && cache.Contains(0); ++reads) {
    ASSERT_TRUE(cache.Get(fast[reads % 5]).ok());
  }
  EXPECT_FALSE(cache.Contains(0)) << "the slow-arm bucket never aged out";
  EXPECT_GT(reads, 2u) << "the slow-arm bucket went as early as under LRU";
  EXPECT_GT(cache.inflation(), 0.0);
}

// Clear() drops L with the entries: a cleared cache evicts exactly like a
// fresh one.
TEST_F(CacheTestFixture, ClearResetsInflation) {
  const StorageTopology topology = TwoPriceTopology(store_->num_buckets());
  BucketCache cache(store_.get(), 2, &topology);
  for (BucketIndex b = 0; b < 10; ++b) ASSERT_TRUE(cache.Get(b).ok());
  ASSERT_GT(cache.inflation(), 0.0);
  cache.Clear();
  EXPECT_EQ(cache.inflation(), 0.0);
  BucketCache fresh(store_.get(), 2, &topology);
  for (BucketCache* c : {&cache, &fresh}) {
    ASSERT_TRUE(c->Get(0).ok());
    ASSERT_TRUE(c->Get(1).ok());
    ASSERT_TRUE(c->Get(3).ok());
  }
  for (BucketIndex b = 0; b < 10; ++b) {
    EXPECT_EQ(cache.Contains(b), fresh.Contains(b)) << "bucket " << b;
  }
  EXPECT_EQ(cache.inflation(), fresh.inflation());
}

// The races the cache mutex must survive: many threads hammering
// Get/Put/Contains/SetPredictionWindow for overlapping buckets, so
// inserts, promotions, priced evictions and window swaps interleave on
// the one lock. The cache runs over two arms at different prices, so
// evictions compare unequal priorities. Run under `tools/ci.sh --tsan`
// this is the thread-sanitizer smoke for the cache; the invariant checks
// below catch logic races (a lost counter, a cache over capacity) even
// without instrumentation.
TEST_F(CacheTestFixture, ConcurrentGetPutWindowStress) {
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 2000;
  const size_t num_buckets = store_->num_buckets();
  const StorageTopology topology = TwoPriceTopology(num_buckets);
  BucketCache cache(store_.get(), 6, &topology);

  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> got_objects{0};
  std::vector<std::future<void>> futures;
  for (size_t t = 0; t < kThreads; ++t) {
    futures.push_back(std::async(std::launch::async, [&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const auto b =
            static_cast<BucketIndex>(rng.UniformU64(num_buckets));
        switch (rng.UniformU64(4)) {
          case 0: {
            auto bucket = store_->ReadBucketForPrefetch(b);
            ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
            cache.Put(b, *bucket);
            puts.fetch_add(1);
            break;
          }
          case 1: {
            auto bucket = cache.Get(b);
            ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
            gets.fetch_add(1);
            got_objects.fetch_add((*bucket)->size());
            break;
          }
          case 2: {
            const BucketIndex window[] = {
                b, static_cast<BucketIndex>((b + 1) % num_buckets)};
            cache.SetPredictionWindow(window);
            break;
          }
          default:
            (void)cache.Contains(b);
            break;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();  // rethrows assertion failures

  // Every Get counted exactly one hit or miss and a Put at most one miss;
  // every miss inserted a bucket that is resident or was evicted.
  CacheStats stats = cache.stats();
  EXPECT_GE(stats.hits + stats.misses, gets.load());
  EXPECT_LE(stats.hits + stats.misses, gets.load() + puts.load());
  EXPECT_EQ(stats.misses, cache.size() + stats.evictions);
  EXPECT_GT(got_objects.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
}

// --------------------------------------------------------------- Catalog --

TEST(CatalogTest, BuildWithIndex) {
  CatalogOptions options;
  options.objects_per_bucket = 200;
  options.build_index = true;
  auto catalog = Catalog::Build(RandomObjects(2000, 197), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->num_buckets(), 10u);
  EXPECT_EQ((*catalog)->num_objects(), 2000u);
  ASSERT_NE((*catalog)->index(), nullptr);
  EXPECT_EQ((*catalog)->index()->size(), 2000u);
}

TEST(CatalogTest, BuildWithoutIndex) {
  CatalogOptions options;
  options.objects_per_bucket = 100;
  options.build_index = false;
  auto catalog = Catalog::Build(RandomObjects(500, 199), options);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->index(), nullptr);
}

TEST(CatalogTest, IndexAgreesWithBuckets) {
  CatalogOptions options;
  options.objects_per_bucket = 100;
  auto catalog = Catalog::Build(RandomObjects(1000, 211), options);
  ASSERT_TRUE(catalog.ok());
  // Every bucket's objects are exactly the index's objects in that range.
  for (BucketIndex i = 0; i < (*catalog)->num_buckets(); ++i) {
    auto bucket = (*catalog)->store()->ReadBucket(i);
    ASSERT_TRUE(bucket.ok());
    auto range = (*bucket)->range();
    auto from_index = (*catalog)->index()->RangeLookup(range.lo, range.hi);
    EXPECT_EQ(from_index.size(), (*bucket)->size());
  }
}

TEST(CatalogTest, FromStoreWrapsFileStoreWithIndex) {
  auto path = std::filesystem::temp_directory_path() /
              ("liferaft_catalog_fs_" + std::to_string(::getpid()) + ".lfr");
  auto partition = PartitionCatalog(RandomObjects(1000, 223), 100);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(FileStore::Create(path.string(), partition->buckets).ok());
  auto store = FileStore::Open(path.string());
  ASSERT_TRUE(store.ok());
  auto catalog = Catalog::FromStore(std::move(*store));
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ((*catalog)->num_buckets(), 10u);
  EXPECT_EQ((*catalog)->num_objects(), 1000u);
  ASSERT_NE((*catalog)->index(), nullptr);
  EXPECT_EQ((*catalog)->index()->size(), 1000u);
  // The index-build read-back does not leak into the run's I/O ledger.
  EXPECT_EQ((*catalog)->store()->stats().bucket_reads, 0u);
  std::filesystem::remove(path);
}

TEST(CatalogTest, FromStoreRejectsNull) {
  EXPECT_FALSE(Catalog::FromStore(nullptr).ok());
}

}  // namespace
}  // namespace liferaft::storage
