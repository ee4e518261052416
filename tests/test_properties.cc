// Property-based tests: randomized cross-validation of core invariants
// against brute-force reference implementations, plus edge cases that the
// unit suites don't reach (duplicate keys, degenerate partitions, known
// CRC vectors, serialization round trips).

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "htm/cover.h"
#include "htm/htm.h"
#include "htm/range_set.h"
#include "storage/partitioner.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/catalog_gen.h"

namespace liferaft {
namespace {

// ----------------------------------------------------------------- CRC32 --

TEST(Crc32Test, KnownVectors) {
  // Standard zlib CRC-32 test vectors.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t part = Crc32(data, 10);
  part = Crc32(data + 10, sizeof(data) - 1 - 10, part);
  EXPECT_EQ(whole, part);
}

// Byte-at-a-time table CRC-32 over the same polynomial: the reference
// Crc32 (carry-less folding where the CPU has it, slicing-by-8 otherwise
// and for tails) must equal bit for bit.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length up to 1100 bytes from each start offset 0-15, so the
  // eight-byte loop and the folding kernel's 16-byte loads meet every
  // alignment, and both meet every tail length.
  Rng rng(613);
  std::vector<unsigned char> buf(1100 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

// Values recorded from the slicing-by-8 Crc32 over BM_Crc32's buffer: a
// constant slipped in both Crc32 and the reference cannot pass here.
TEST(Crc32Test, GoldenValuesOfAMegabyte) {
  Rng rng(43);
  std::vector<unsigned char> buf((1 << 20) + 13);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  const std::pair<size_t, uint32_t> golden[] = {{1 << 20, 0x81d1b589u},
                                                {(1 << 20) + 13, 0xa7201be0u}};
  for (const auto& [len, want] : golden) {
    EXPECT_EQ(Crc32(buf.data(), len), want) << "len " << len;
    EXPECT_EQ(BytewiseCrc32(buf.data(), len, 0), want) << "len " << len;
  }
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  Rng rng(617);
  std::vector<unsigned char> buf(1100);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  const uint32_t whole = BytewiseCrc32(buf.data(), buf.size(), 0);
  ASSERT_EQ(Crc32(buf.data(), buf.size()), whole);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Rng rng(601);
  std::string data(256, '\0');
  for (auto& c : data) c = static_cast<char>(rng.Next() & 0xFF);
  uint32_t original = Crc32(data.data(), data.size());
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupted = data;
    size_t byte = rng.UniformU64(corrupted.size());
    corrupted[byte] ^= static_cast<char>(1u << rng.UniformU64(8));
    EXPECT_NE(Crc32(corrupted.data(), corrupted.size()), original);
  }
}

// ---------------------------------------------------------------- Coding --

TEST(CodingTest, FixedWidthRoundTrips) {
  Rng rng(607);
  for (int i = 0; i < 200; ++i) {
    uint32_t v32 = static_cast<uint32_t>(rng.Next());
    uint64_t v64 = rng.Next();
    double vd = rng.Normal(0, 1e12);
    float vf = static_cast<float>(rng.Normal(0, 1e6));
    std::string buf;
    PutFixed32(&buf, v32);
    PutFixed64(&buf, v64);
    PutDouble(&buf, vd);
    PutFloat(&buf, vf);
    ASSERT_EQ(buf.size(), 4u + 8u + 8u + 4u);
    EXPECT_EQ(GetFixed32(buf.data()), v32);
    EXPECT_EQ(GetFixed64(buf.data() + 4), v64);
    EXPECT_DOUBLE_EQ(GetDouble(buf.data() + 12), vd);
    EXPECT_FLOAT_EQ(GetFloat(buf.data() + 20), vf);
  }
}

TEST(CodingTest, LittleEndianLayout) {
  std::string buf;
  PutFixed32(&buf, 0x01020304u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
}

TEST(CodingTest, SpecialFloatValues) {
  std::string buf;
  PutDouble(&buf, std::numeric_limits<double>::infinity());
  PutDouble(&buf, -0.0);
  EXPECT_EQ(GetDouble(buf.data()), std::numeric_limits<double>::infinity());
  EXPECT_EQ(GetDouble(buf.data() + 8), 0.0);
  EXPECT_TRUE(std::signbit(GetDouble(buf.data() + 8)));
}

// ------------------------------------------------- RangeSet vs reference --

// Reference implementation: explicit set of IDs (small universes only).
class ReferenceSet {
 public:
  void Add(uint64_t lo, uint64_t hi) {
    for (uint64_t v = lo; v <= hi; ++v) ids_.insert(v);
  }
  bool Contains(uint64_t v) const { return ids_.count(v) > 0; }
  bool Overlaps(uint64_t lo, uint64_t hi) const {
    auto it = ids_.lower_bound(lo);
    return it != ids_.end() && *it <= hi;
  }
  uint64_t Count() const { return ids_.size(); }
  std::set<uint64_t> ids_;
};

class RangeSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeSetPropertyTest, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  const uint64_t universe = 200;
  htm::RangeSet actual;
  ReferenceSet expected;
  for (int op = 0; op < 60; ++op) {
    uint64_t a = rng.UniformU64(universe);
    uint64_t b = rng.UniformU64(universe);
    if (a > b) std::swap(a, b);
    actual.Add(a, b);
    expected.Add(a, b);
  }
  EXPECT_EQ(actual.Count(), expected.Count());
  for (uint64_t v = 0; v < universe; ++v) {
    EXPECT_EQ(actual.Contains(v), expected.Contains(v)) << "id " << v;
  }
  for (int trial = 0; trial < 100; ++trial) {
    uint64_t a = rng.UniformU64(universe);
    uint64_t b = rng.UniformU64(universe);
    if (a > b) std::swap(a, b);
    EXPECT_EQ(actual.Overlaps(a, b), expected.Overlaps(a, b));
  }
  // Normalization invariants: sorted, disjoint, non-adjacent.
  const auto& ranges = actual.ranges();
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].lo, ranges[i - 1].hi + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RangeSetPropertyTest, IntersectMatchesReference) {
  Rng rng(613);
  for (int trial = 0; trial < 20; ++trial) {
    htm::RangeSet a, b;
    ReferenceSet ra, rb;
    for (int op = 0; op < 20; ++op) {
      uint64_t x = rng.UniformU64(100), y = rng.UniformU64(100);
      if (x > y) std::swap(x, y);
      if (op % 2) {
        a.Add(x, y);
        ra.Add(x, y);
      } else {
        b.Add(x, y);
        rb.Add(x, y);
      }
    }
    auto inter = a.Intersect(b);
    for (uint64_t v = 0; v < 100; ++v) {
      EXPECT_EQ(inter.Contains(v), ra.Contains(v) && rb.Contains(v));
    }
  }
}

// ------------------------------------------- Partitioner degenerate cases --

TEST(PartitionerEdgeTest, AllObjectsAtSamePosition) {
  // Duplicate HTM IDs must never straddle a bucket boundary, so a catalog
  // of identical positions collapses into one bucket.
  std::vector<storage::CatalogObject> objects;
  for (int i = 0; i < 1000; ++i) {
    objects.push_back(storage::MakeObject(i, {123.0, 45.0}));
  }
  auto result = storage::PartitionCatalog(std::move(objects), 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets.size(), 1u);
  EXPECT_EQ(result->buckets[0].size(), 1000u);
}

TEST(PartitionerEdgeTest, HeavyDuplicateRunsKeepIdsTogether) {
  Rng rng(617);
  std::vector<storage::CatalogObject> objects;
  // 50 distinct positions x 40 objects each.
  for (int p = 0; p < 50; ++p) {
    SkyPoint pos{rng.UniformDouble(0, 360), rng.UniformDouble(-80, 80)};
    for (int i = 0; i < 40; ++i) {
      objects.push_back(
          storage::MakeObject(static_cast<uint64_t>(p * 40 + i), pos));
    }
  }
  auto result = storage::PartitionCatalog(std::move(objects), 100);
  ASSERT_TRUE(result.ok());
  // No HTM ID appears in two buckets.
  std::map<htm::HtmId, std::set<storage::BucketIndex>> where;
  for (const auto& b : result->buckets) {
    for (htm::HtmId id : b.page().ids()) where[id].insert(b.index());
  }
  for (const auto& [id, buckets] : where) {
    EXPECT_EQ(buckets.size(), 1u) << "HTM ID " << id << " split";
  }
}

TEST(PartitionerEdgeTest, SingleObjectCatalog) {
  auto result = storage::PartitionCatalog(
      {storage::MakeObject(0, {10, 10})}, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets.size(), 1u);
  // The single bucket still owns the whole curve.
  EXPECT_EQ(result->map->RangeOf(0).lo, htm::LevelMin(htm::kObjectLevel));
  EXPECT_EQ(result->map->RangeOf(0).hi, htm::LevelMax(htm::kObjectLevel));
}

TEST(PartitionerEdgeTest, BucketSizeLargerThanCatalog) {
  auto objects = [] {
    Rng rng(619);
    std::vector<storage::CatalogObject> v;
    for (int i = 0; i < 50; ++i) {
      v.push_back(storage::MakeObject(
          i, {rng.UniformDouble(0, 360), rng.UniformDouble(-80, 80)}));
    }
    return v;
  }();
  auto result = storage::PartitionCatalog(std::move(objects), 1'000'000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets.size(), 1u);
  EXPECT_EQ(result->buckets[0].size(), 50u);
}

// --------------------------------------- Cover/point-location cross-check --

class CoverPointAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverPointAgreementTest, EveryCoveredCenterIsNearTheCap) {
  // Soundness direction of covers (the inverse of conservativeness): the
  // center of every covered trixel must lie within radius + trixel size of
  // the cap center — covers cannot wander off to unrelated sky.
  const int level = GetParam();
  Rng rng(631 + level);
  for (int trial = 0; trial < 20; ++trial) {
    SkyPoint center{rng.UniformDouble(0, 360), rng.UniformDouble(-85, 85)};
    double radius = rng.UniformDouble(0.1, 5.0);
    auto cover = htm::CoverCircle(center, radius, level);
    // Level-L trixels are at most ~90/2^L degrees across.
    double slack = 180.0 / std::pow(2.0, level) + 0.5;
    for (const auto& r : cover.ranges()) {
      for (htm::HtmId id = r.lo; id <= r.hi;
           id += std::max<uint64_t>(1, r.Count() / 8)) {
        SkyPoint c = htm::IdToCenter(id);
        EXPECT_LE(AngularSeparationDeg(center, c), radius + slack)
            << "covered trixel far outside cap at level " << level;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, CoverPointAgreementTest,
                         ::testing::Values(4, 6, 8, 10));

// -------------------------------------------------- Catalog distributions --

TEST(CatalogDistributionTest, UniformCatalogIsAreaUniform) {
  // With cluster_fraction = 0, the 8 root trixels (equal area) should hold
  // roughly equal counts.
  workload::CatalogGenConfig gen;
  gen.num_objects = 80'000;
  gen.cluster_fraction = 0.0;
  gen.seed = 641;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  std::map<htm::HtmId, size_t> roots;
  for (const auto& o : *objects) ++roots[htm::AncestorAt(o.htm_id, 0)];
  ASSERT_EQ(roots.size(), 8u);
  for (const auto& [root, count] : roots) {
    EXPECT_NEAR(static_cast<double>(count), 10'000.0, 500.0)
        << "root " << htm::IdToName(root);
  }
}

TEST(CatalogDistributionTest, MagnitudesWithinConfiguredRange) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 2000;
  gen.mag_min = 10.0f;
  gen.mag_max = 12.0f;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  for (const auto& o : *objects) {
    EXPECT_GE(o.mag, 10.0f);
    EXPECT_LE(o.mag, 12.0f);
  }
}

}  // namespace
}  // namespace liferaft
