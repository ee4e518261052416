// Format-identity tests for the columnar v2 bucket pages: the SAME catalog
// written in the row v1 and columnar v2 formats — and held in memory —
// must drive the simulation engine to byte-identical results. The
// RunMetricsJson string (every double %.17g) is the digest: two runs agree
// in it iff they agree bit for bit. Covered across the grid that changes
// cache/topology behavior (cache shards x volumes), for both the closed
// drain and continuous serving, plus the v1 auto-detect regression and the
// byte-budget cache advantage of the compressed format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft {
namespace {

constexpr size_t kObjects = 20'000;
constexpr size_t kPerBucket = 500;

class ColumnarIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = std::filesystem::temp_directory_path() /
                ("liferaft_columnar_" + std::to_string(::getpid()));
    v1_path_ = base.string() + ".v1.lfr";
    v2_path_ = base.string() + ".v2.lfr";

    workload::CatalogGenConfig gen;
    gen.num_objects = kObjects;
    gen.seed = 907;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    objects_ = std::move(*objects);

    auto partition = storage::PartitionCatalog(objects_, kPerBucket);
    ASSERT_TRUE(partition.ok());
    ASSERT_TRUE(storage::FileStore::Create(v1_path_, partition->buckets,
                                           storage::BucketFormat::kRowV1)
                    .ok());
    ASSERT_TRUE(storage::FileStore::Create(v2_path_, partition->buckets,
                                           storage::BucketFormat::kColumnarV2)
                    .ok());

    workload::TraceConfig tc;
    tc.num_queries = 24;
    tc.seed = 911;
    tc.match_radius_arcsec = 900.0;
    tc.max_objects_per_query = 1500;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
  }

  void TearDown() override {
    std::filesystem::remove(v1_path_);
    std::filesystem::remove(v2_path_);
  }

  // A catalog over the given on-disk file (with B+tree, so hybrid and
  // IndexOnly paths work).
  std::unique_ptr<storage::Catalog> OpenCatalog(const std::string& path) {
    auto store = storage::FileStore::Open(path);
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
  std::string v1_path_;
  std::string v2_path_;
};

// The tentpole claim: the on-disk page format is invisible to every result
// and every modeled cost. Swept over the axes that alter cache eviction
// and I/O interleaving (shards x volumes x prefetch).
TEST_F(ColumnarIdentityTest, DrainMetricsAreFormatIdentical) {
  for (size_t shards : {size_t{1}, size_t{2}}) {
    for (size_t volumes : {size_t{1}, size_t{2}}) {
      sim::EngineConfig config;
      config.cache_capacity = 8;
      config.cache_shards = shards;
      config.topology.num_volumes = volumes;
      if (volumes > 1) {
        config.enable_prefetch = true;
        config.prefetch_depth = 2;
      }
      auto mem_catalog = MemCatalog();
      auto v1_catalog = OpenCatalog(v1_path_);
      auto v2_catalog = OpenCatalog(v2_path_);
      std::string mem = sim::RunMetricsJson(Drain(mem_catalog.get(), config));
      std::string v1 = sim::RunMetricsJson(Drain(v1_catalog.get(), config));
      std::string v2 = sim::RunMetricsJson(Drain(v2_catalog.get(), config));
      EXPECT_EQ(v1, v2) << "shards=" << shards << " volumes=" << volumes;
      EXPECT_EQ(mem, v1) << "shards=" << shards << " volumes=" << volumes;
    }
  }
}

TEST_F(ColumnarIdentityTest, DrainMatchesAreFormatIdentical) {
  sim::EngineConfig config;
  config.cache_capacity = 8;
  config.collect_matches = true;
  auto v1_catalog = OpenCatalog(v1_path_);
  auto v2_catalog = OpenCatalog(v2_path_);
  sim::RunMetrics v1 = Drain(v1_catalog.get(), config);
  sim::RunMetrics v2 = Drain(v2_catalog.get(), config);
  EXPECT_GT(v1.total_matches, 0u);
  EXPECT_EQ(v1.total_matches, v2.total_matches);
  EXPECT_EQ(sim::RunMetricsJson(v1), sim::RunMetricsJson(v2));
}

TEST_F(ColumnarIdentityTest, ServeMetricsAreFormatIdentical) {
  sim::EngineConfig config;
  config.cache_capacity = 8;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  auto v1_catalog = OpenCatalog(v1_path_);
  auto v2_catalog = OpenCatalog(v2_path_);
  std::string v1 = sim::RunMetricsJson(Serve(v1_catalog.get(), config));
  std::string v2 = sim::RunMetricsJson(Serve(v2_catalog.get(), config));
  EXPECT_EQ(v1, v2);
}

// Regression: a pre-existing v1 file keeps working with zero caller
// changes — Open auto-detects the version.
TEST_F(ColumnarIdentityTest, RowV1FilesRemainReadable) {
  auto store = storage::FileStore::Open(v1_path_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->format(), storage::BucketFormat::kRowV1);
  auto catalog = storage::Catalog::FromStore(std::move(*store));
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->num_objects(), kObjects);
}

// At a fixed cache byte budget the compressed pages keep more buckets
// resident. With prefetch on, the pipeline claims each prefetched bucket
// into the cache and the evaluator then reads it from there, so a budget
// that holds the largest v2 page but no v1 page separates the formats: a
// claimed v1 page is evicted at once and read again, a v2 page is a hit.
TEST_F(ColumnarIdentityTest, ByteBudgetCacheFavorsColumnar) {
  auto v1_catalog = OpenCatalog(v1_path_);
  auto v2_catalog = OpenCatalog(v2_path_);
  uint64_t v1_smallest = UINT64_MAX;
  uint64_t v2_largest = 0;
  for (storage::BucketIndex b = 0; b < v1_catalog->num_buckets(); ++b) {
    v1_smallest =
        std::min(v1_smallest, v1_catalog->store()->EncodedBucketBytes(b));
    v2_largest =
        std::max(v2_largest, v2_catalog->store()->EncodedBucketBytes(b));
  }
  ASSERT_LT(v2_largest, v1_smallest);

  sim::EngineConfig config;
  config.cache_capacity = 9999;  // pure byte budget
  config.cache_capacity_bytes = v2_largest;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  sim::RunMetrics v1 = Drain(v1_catalog.get(), config);
  sim::RunMetrics v2 = Drain(v2_catalog.get(), config);
  EXPECT_EQ(v1.cache.hits, 0u);
  EXPECT_GT(v2.cache.HitRate(), 0.4);
  EXPECT_LT(v2.makespan_ms, v1.makespan_ms);
  EXPECT_EQ(v1.total_matches, v2.total_matches);
}

}  // namespace
}  // namespace liferaft
