// Store-identity tests for the columnar bucket pages: the SAME catalog
// held in memory and written to a FileStore must drive the simulation
// engine to byte-identical results. The RunMetricsJson string (every
// double %.17g) is the digest: two runs agree in it iff they agree bit
// for bit. Covered across the axis that changes cache/topology behavior
// (volumes), for both the closed drain and continuous serving. The page's
// lazily filled position blocks are pinned here too: every window,
// including one read by several threads at once, returns MakeObject's
// bits. Last, Parse meets mutated pages: each is rejected with Corruption
// or keeps the page contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geom/spherical.h"
#include "htm/htm.h"
#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "storage/columnar.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft {
namespace {

constexpr size_t kObjects = 20'000;
constexpr size_t kPerBucket = 500;

class ColumnarIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("liferaft_columnar_" + std::to_string(::getpid()) + ".lfr"))
                .string();

    workload::CatalogGenConfig gen;
    gen.num_objects = kObjects;
    gen.seed = 907;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    objects_ = std::move(*objects);

    auto partition = storage::PartitionCatalog(objects_, kPerBucket);
    ASSERT_TRUE(partition.ok());
    ASSERT_TRUE(storage::FileStore::Create(path_, partition->buckets).ok());

    workload::TraceConfig tc;
    tc.num_queries = 24;
    tc.seed = 911;
    tc.match_radius_arcsec = 900.0;
    tc.max_objects_per_query = 1500;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  // A catalog over the on-disk file (with B+tree, so hybrid and IndexOnly
  // paths work).
  std::unique_ptr<storage::Catalog> FileCatalog() {
    auto store = storage::FileStore::Open(path_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto catalog = storage::Catalog::FromStore(std::move(*store));
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return std::move(*catalog);
  }

  std::unique_ptr<storage::Catalog> MemCatalog() {
    storage::CatalogOptions options;
    options.objects_per_bucket = kPerBucket;
    auto catalog = storage::Catalog::Build(objects_, options);
    EXPECT_TRUE(catalog.ok());
    return std::move(*catalog);
  }

  sim::RunMetrics Drain(storage::Catalog* catalog,
                        const sim::EngineConfig& config) {
    auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
        catalog->store(), storage::DiskModel{}, sched::LifeRaftConfig{});
    sim::SimEngine engine(catalog, std::move(scheduler), config);
    auto metrics =
        engine.Run(trace_, sim::ImmediateArrivals(trace_.size()));
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return std::move(*metrics);
  }

  sim::RunMetrics Serve(storage::Catalog* catalog,
                        const sim::EngineConfig& config) {
    auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
        catalog->store(), storage::DiskModel{}, sched::LifeRaftConfig{});
    sim::SimEngine engine(catalog, std::move(scheduler), config);
    sim::ServeConfig serve;
    serve.arrivals.kind = sim::ArrivalSpec::Kind::kPoisson;
    serve.arrivals.rate_qps = 0.5;
    serve.arrivals.seed = 919;
    auto metrics = engine.Serve(trace_, serve);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return std::move(*metrics);
  }

  std::vector<storage::CatalogObject> objects_;
  std::vector<query::CrossMatchQuery> trace_;
  std::string path_;
};

// Where the pages live is invisible to every result and every modeled
// cost: the modeled clock prices T_b by the kBytesPerObject estimate, not
// by page bytes. Swept over the axis that alters cache eviction and I/O
// interleaving (volumes, with prefetch on at two).
TEST_F(ColumnarIdentityTest, DrainMetricsAreFormatIdentical) {
  for (size_t volumes : {size_t{1}, size_t{2}}) {
    sim::EngineConfig config;
    config.cache_capacity = 8;
    config.topology.num_volumes = volumes;
    if (volumes > 1) {
      config.enable_prefetch = true;
      config.prefetch_depth = 2;
    }
    auto mem_catalog = MemCatalog();
    auto file_catalog = FileCatalog();
    std::string mem = sim::RunMetricsJson(Drain(mem_catalog.get(), config));
    std::string file = sim::RunMetricsJson(Drain(file_catalog.get(), config));
    EXPECT_EQ(mem, file) << "volumes=" << volumes;
  }
}

TEST_F(ColumnarIdentityTest, DrainMatchesAreFormatIdentical) {
  sim::EngineConfig config;
  config.cache_capacity = 8;
  config.collect_matches = true;
  auto mem_catalog = MemCatalog();
  auto file_catalog = FileCatalog();
  sim::RunMetrics mem = Drain(mem_catalog.get(), config);
  sim::RunMetrics file = Drain(file_catalog.get(), config);
  EXPECT_GT(mem.total_matches, 0u);
  EXPECT_EQ(mem.total_matches, file.total_matches);
  EXPECT_EQ(sim::RunMetricsJson(mem), sim::RunMetricsJson(file));
}

TEST_F(ColumnarIdentityTest, ServeMetricsAreFormatIdentical) {
  sim::EngineConfig config;
  config.cache_capacity = 8;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  auto mem_catalog = MemCatalog();
  auto file_catalog = FileCatalog();
  std::string mem = sim::RunMetricsJson(Serve(mem_catalog.get(), config));
  std::string file = sim::RunMetricsJson(Serve(file_catalog.get(), config));
  EXPECT_EQ(mem, file);
}

// ------------------------------------------------------------ Positions --

constexpr size_t kBlock = storage::ColumnarPage::kPositionBlockRows;

// `n` random sky objects sorted by HTM id (MakeObject computes each pos).
std::vector<storage::CatalogObject> SortedObjects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<storage::CatalogObject> objects;
  for (size_t i = 0; i < n; ++i) {
    objects.push_back(storage::MakeObject(i, workload::RandomSkyPoint(&rng)));
  }
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  return objects;
}

// A fresh page (no position block filled yet) over `objects`.
std::shared_ptr<const storage::ColumnarPage> FreshPage(
    const std::vector<storage::CatalogObject>& objects) {
  auto page = storage::ColumnarPage::Encode(
      htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                   htm::LevelMax(htm::kObjectLevel)},
      objects);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return std::move(*page);
}

// Positions(first, last) has last - first rows, each equal bit for bit to
// both MakeObject's pos and SkyToUnitVector of the page's own ra/dec.
void ExpectWindowBits(const storage::ColumnarPage& page,
                      const std::vector<storage::CatalogObject>& objects,
                      size_t first, size_t last) {
  const std::span<const Vec3> pos = page.Positions(first, last);
  ASSERT_EQ(pos.size(), last - first) << "[" << first << ", " << last << ")";
  for (size_t i = first; i < last; ++i) {
    const Vec3 expected =
        SkyToUnitVector(SkyPoint{page.ra()[i], page.dec()[i]});
    const Vec3& got = pos[i - first];
    EXPECT_EQ(got.x, expected.x) << "row " << i;
    EXPECT_EQ(got.y, expected.y) << "row " << i;
    EXPECT_EQ(got.z, expected.z) << "row " << i;
    EXPECT_EQ(got.x, objects[i].pos.x) << "row " << i;
    EXPECT_EQ(got.y, objects[i].pos.y) << "row " << i;
    EXPECT_EQ(got.z, objects[i].pos.z) << "row " << i;
  }
}

TEST(ColumnarPositionsTest, WindowsAtBlockEdgesMatchMakeObjectBitForBit) {
  // 200 rows: three full blocks and a last partial one of 8 rows.
  const auto objects = SortedObjects(200, 1201);
  const std::vector<std::pair<size_t, size_t>> windows = {
      {63, 64},  {63, 65},   {64, 65},   {65, 66},   {0, 63},
      {0, 64},   {0, 65},    {63, 200},  {64, 200},  {65, 200},
      {62, 129}, {127, 129}, {192, 200}, {199, 200}, {190, 200},
      {0, 200}};
  // Each window first on a fresh page, so it does the filling itself...
  for (const auto& [first, last] : windows) {
    ExpectWindowBits(*FreshPage(objects), objects, first, last);
  }
  // ...then all of them on one page, where later windows find some of
  // their blocks already filled by earlier ones.
  auto shared = FreshPage(objects);
  for (const auto& [first, last] : windows) {
    ExpectWindowBits(*shared, objects, first, last);
  }
}

TEST(ColumnarPositionsTest, SmallPagesAndEmptyWindows) {
  const auto one = SortedObjects(1, 1203);
  ExpectWindowBits(*FreshPage(one), one, 0, 1);

  const auto block = SortedObjects(kBlock, 1207);
  ExpectWindowBits(*FreshPage(block), block, kBlock - 1, kBlock);
  ExpectWindowBits(*FreshPage(block), block, 0, kBlock);

  auto page = FreshPage(block);
  EXPECT_TRUE(page->Positions(0, 0).empty());
  EXPECT_TRUE(page->Positions(5, 5).empty());
  EXPECT_TRUE(page->Positions(kBlock, kBlock).empty());
  ExpectWindowBits(*page, block, 0, kBlock);

  auto empty = FreshPage({});
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(empty->Positions(0, 0).empty());
}

// Scan slices of one batch share a page: four threads reading overlapping
// random windows of a fresh page must all see MakeObject's bits while
// other threads fill neighbouring blocks (run under tools/ci.sh --tsan).
TEST(ColumnarPositionsTest, ConcurrentOverlappingWindowsAgree) {
  constexpr int kThreads = 4;
  constexpr int kPages = 50;
  constexpr int kWindowsPerThread = 100;
  const auto objects = SortedObjects(1000, 1213);
  const size_t n = objects.size();
  for (int p = 0; p < kPages; ++p) {
    auto page = FreshPage(objects);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(p * kThreads + t));
        for (int w = 0; w < kWindowsPerThread; ++w) {
          const size_t first = rng.UniformU64(n);
          const size_t last =
              first + 1 + rng.UniformU64(std::min<size_t>(3 * kBlock,
                                                          n - first));
          const std::span<const Vec3> pos = page->Positions(first, last);
          for (size_t i = first; i < last; ++i) {
            if (!(pos[i - first] == objects[i].pos)) ++mismatches;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_EQ(mismatches.load(), 0) << "page " << p;
  }
}

// ------------------------------------------------------------ Mutation --

// An accepted page must keep Parse's contract: ids ascending inside the
// page's range, every row of every column readable (MaterializeObject
// reads them all and must agree with the column views), and
// Positions(0, size()) filling every row with MaterializeObject's bits.
void ExpectPageContract(const storage::ColumnarPage& page) {
  const std::span<const htm::HtmId> ids = page.ids();
  ASSERT_EQ(ids.size(), page.size());
  ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  if (!ids.empty()) {
    ASSERT_GE(ids.front(), page.range().lo);
    ASSERT_LE(ids.back(), page.range().hi);
  }
  const std::span<const Vec3> pos = page.Positions(0, page.size());
  ASSERT_EQ(pos.size(), page.size());
  for (size_t i = 0; i < page.size(); ++i) {
    const storage::CatalogObject o = page.MaterializeObject(i);
    ASSERT_EQ(o.htm_id, ids[i]);
    ASSERT_EQ(o.object_id, page.object_id(i));
    ASSERT_EQ(std::memcmp(&o.ra_deg, &page.ra()[i], sizeof(double)), 0);
    ASSERT_EQ(std::memcmp(&o.dec_deg, &page.dec()[i], sizeof(double)), 0);
    ASSERT_EQ(std::memcmp(&o.mag, &page.mag()[i], sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(&o.color, &page.color()[i], sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(&o.pos, &pos[i], sizeof(Vec3)), 0);
  }
}

// ColumnarPage::Parse reads bytes off disk, so no mutant of a real page
// may crash it or come back as a page that breaks its contract. The
// pages are PartitionCatalog's, in both object-id encodings and at two
// sizes. Mutations: bit flips anywhere, random header bytes, a column
// offset moved by 16, random bytes in the id column, `count` rewrites,
// and truncation. Seven mutants in eight get their crc recomputed where
// the crc offset still fits, so the structural checks behind the
// checksum run. tools/ci.sh --asan runs this, where a read past the page
// traps.
TEST(ColumnarParseMutationTest, MutantsParseCleanlyOrFailWithCorruption) {
  using Layout = storage::ColumnarPageLayout;
  std::vector<std::string> pages;
  for (const auto& [n, per_bucket] :
       {std::pair<size_t, size_t>{600, 150}, {40, 7}}) {
    std::vector<storage::CatalogObject> objects = SortedObjects(n, 1217);
    for (const bool sequential : {false, true}) {
      if (sequential) {
        for (size_t i = 0; i < n; ++i) objects[i].object_id = 1000 + i;
      }
      auto partition = storage::PartitionCatalog(objects, per_bucket);
      ASSERT_TRUE(partition.ok()) << partition.status().ToString();
      for (const storage::Bucket& b : partition->buckets) {
        pages.emplace_back(b.page().bytes());
      }
    }
  }

  const auto poke32 = [](std::string* s, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) (*s)[at + i] = static_cast<char>(v >> 8 * i);
  };

  constexpr int kMutants = 24'000;
  Rng rng(1223);
  int accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = pages[rng.UniformU64(pages.size())];
    const int edits = 1 + static_cast<int>(rng.UniformU64(3));
    switch (rng.UniformU64(6)) {
      case 0:  // bit flips anywhere
        for (int e = 0; e < edits; ++e) {
          bytes[rng.UniformU64(bytes.size())] ^=
              static_cast<char>(1u << rng.UniformU64(8));
        }
        break;
      case 1:  // random header bytes
        for (int e = 0; e < edits; ++e) {
          bytes[rng.UniformU64(Layout::kHeaderBytes)] =
              static_cast<char>(rng.Next());
        }
        break;
      case 2: {  // a column offset moved by 16 either way
        const size_t at = Layout::kColumnOffsets + 4 * rng.UniformU64(6);
        const uint32_t moved = GetFixed32(bytes.data() + at) +
                               (rng.Bernoulli(0.5) ? 16u : -16u);
        poke32(&bytes, at, moved);
        break;
      }
      case 3: {  // random bytes in the id column
        const char* offsets = bytes.data() + Layout::kColumnOffsets;
        const uint32_t first = GetFixed32(offsets);
        const uint32_t last = GetFixed32(offsets + 4);
        for (int e = 0; e < edits && first < last; ++e) {
          bytes[first + rng.UniformU64(last - first)] =
              static_cast<char>(rng.Next());
        }
        break;
      }
      case 4: {  // count rewrites: near the true count, or anything
        const uint32_t count = GetFixed32(bytes.data() + Layout::kCountOffset);
        poke32(&bytes, Layout::kCountOffset,
               rng.Bernoulli(0.5)
                   ? count + static_cast<uint32_t>(rng.UniformInt(-3, 3))
                   : static_cast<uint32_t>(rng.Next()));
        break;
      }
      default:  // truncation, half the time with the crc offset following
        bytes.resize(rng.UniformU64(bytes.size()));
        if (bytes.size() >= Layout::kHeaderBytes + 4 && rng.Bernoulli(0.5)) {
          poke32(&bytes, Layout::kCrcOffsetField,
                 static_cast<uint32_t>(bytes.size() - 4));
        }
        break;
    }
    if (bytes.size() >= Layout::kHeaderBytes && rng.UniformU64(8) != 0) {
      const uint64_t crc_off =
          GetFixed32(bytes.data() + Layout::kCrcOffsetField);
      if (crc_off + 4 <= bytes.size()) {
        poke32(&bytes, crc_off, Crc32(bytes.data(), crc_off));
      }
    }

    std::unique_ptr<char[]> buf(new char[bytes.size()]);
    std::memcpy(buf.get(), bytes.data(), bytes.size());
    auto page = storage::ColumnarPage::Parse(std::move(buf), bytes.size());
    if (!page.ok()) {
      ASSERT_EQ(page.status().code(), StatusCode::kCorruption)
          << "mutant " << m << ": " << page.status().ToString();
      continue;
    }
    ++accepted;
    SCOPED_TRACE("mutant " + std::to_string(m));
    ExpectPageContract(**page);
    if (HasFatalFailure()) return;
  }
  // Both outcomes occur: the mutants reach past the checksum.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

}  // namespace
}  // namespace liferaft
