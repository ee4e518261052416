// End-to-end integration tests across module boundaries: the FileStore
// persistence path feeding live joins, full pipeline (generate -> persist
// trace -> replay) determinism, scheduler-independence of query results
// through the public facade, and cross-validation of the two join
// kernels over a real partitioned catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <tuple>

#include "core/liferaft.h"
#include "join/merge_join.h"
#include "join/indexed_join.h"
#include "query/preprocessor.h"
#include "sched/liferaft_scheduler.h"
#include "sched/round_robin.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace liferaft {
namespace {

using MatchKey = std::tuple<query::QueryId, uint64_t, uint64_t>;

std::vector<storage::CatalogObject> SmallSky(size_t n, uint64_t seed) {
  workload::CatalogGenConfig gen;
  gen.num_objects = n;
  gen.seed = seed;
  auto objects = workload::GenerateCatalog(gen);
  EXPECT_TRUE(objects.ok());
  return std::move(*objects);
}

// ----------------------------------------------- FileStore -> live joins --

class FileStorePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("liferaft_integration_" + std::to_string(::getpid()) + ".lfr");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(FileStorePipelineTest, JoinsFromDiskMatchJoinsFromMemory) {
  auto objects = SmallSky(20'000, 701);
  auto partition = storage::PartitionCatalog(objects, 500);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(
      storage::FileStore::Create(path_.string(), partition->buckets).ok());
  auto disk_store = storage::FileStore::Open(path_.string());
  ASSERT_TRUE(disk_store.ok());

  // One query over a dense region, joined bucket-by-bucket from both
  // stores; match sets must be identical.
  Rng rng(709);
  query::CrossMatchQuery q;
  q.id = 1;
  for (int i = 0; i < 150; ++i) {
    const auto& co = objects[rng.UniformU64(objects.size())];
    q.objects.push_back(query::MakeQueryObject(i, co.sky(), 30.0));
  }
  auto workloads = query::SplitQueryByBucket(q, *partition->map);
  ASSERT_FALSE(workloads.empty());

  std::set<MatchKey> from_memory, from_disk;
  for (const auto& w : workloads) {
    query::WorkloadEntry entry;
    entry.query_id = q.id;
    entry.objects = w.objects;

    std::vector<query::Match> mem_out, disk_out;
    const std::vector<query::WorkloadEntry> batch = {entry};
    join::MergeCrossMatch(partition->buckets[w.bucket], batch, &mem_out);
    auto disk_bucket = (*disk_store)->ReadBucket(w.bucket);
    ASSERT_TRUE(disk_bucket.ok());
    join::MergeCrossMatch(**disk_bucket, batch, &disk_out);

    for (const auto& m : mem_out) {
      from_memory.insert({m.query_id, m.query_object_id,
                          m.catalog_object_id});
    }
    for (const auto& m : disk_out) {
      from_disk.insert({m.query_id, m.query_object_id,
                        m.catalog_object_id});
    }
  }
  EXPECT_EQ(from_memory, from_disk);
  EXPECT_FALSE(from_memory.empty());
}

// ------------------------------------- trace persistence -> replay equal --

TEST(TracePipelineTest, PersistedTraceReplaysIdentically) {
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = 500;
  auto catalog = storage::Catalog::Build(SmallSky(30'000, 719),
                                         catalog_options);
  ASSERT_TRUE(catalog.ok());

  workload::TraceConfig tc;
  tc.num_queries = 40;
  tc.match_radius_arcsec = 900.0;
  tc.seed = 727;
  auto trace = workload::GenerateTrace(tc);
  ASSERT_TRUE(trace.ok());

  auto path = std::filesystem::temp_directory_path() /
              ("liferaft_trace_rt_" + std::to_string(::getpid()) + ".lft");
  ASSERT_TRUE(workload::SaveTrace(path.string(), *trace).ok());
  auto loaded = workload::LoadTrace(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok());

  auto run = [&](const std::vector<query::CrossMatchQuery>& t) {
    sched::LifeRaftConfig config;
    config.alpha = 0.25;
    auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
        (*catalog)->store(), storage::DiskModel{}, config);
    sim::SimEngine engine(catalog->get(), std::move(scheduler), {});
    auto metrics = engine.Run(t, sim::ImmediateArrivals(t.size()));
    EXPECT_TRUE(metrics.ok());
    return *metrics;
  };
  auto m1 = run(*trace);
  auto m2 = run(*loaded);
  EXPECT_DOUBLE_EQ(m1.makespan_ms, m2.makespan_ms);
  EXPECT_EQ(m1.total_matches, m2.total_matches);
  EXPECT_EQ(m1.store.bucket_reads, m2.store.bucket_reads);
}

// ----------------------------- facade: results independent of scheduling --

TEST(FacadeIntegrationTest, MatchSetIndependentOfAlphaAndCache) {
  auto objects = SmallSky(30'000, 733);

  auto run = [&](double alpha, size_t cache) {
    core::LifeRaftOptions options;
    options.objects_per_bucket = 500;
    options.cache_capacity = cache;
    options.alpha = alpha;
    auto system = core::LifeRaft::Create(objects, options);
    EXPECT_TRUE(system.ok());

    Rng rng(739);
    for (query::QueryId qid = 1; qid <= 5; ++qid) {
      query::CrossMatchQuery q;
      q.id = qid;
      SkyPoint center = workload::RandomSkyPoint(&rng);
      for (int i = 0; i < 120; ++i) {
        q.objects.push_back(query::MakeQueryObject(
            i, workload::RandomPointInCap(&rng, center, 5.0), 1200.0));
      }
      EXPECT_TRUE((*system)->Submit(q).ok());
    }
    std::set<MatchKey> keys;
    auto completions = (*system)->Drain([&](const core::BatchOutcome& b) {
      for (const auto& m : b.matches) {
        keys.insert({m.query_id, m.query_object_id, m.catalog_object_id});
      }
    });
    EXPECT_TRUE(completions.ok());
    EXPECT_EQ(completions->size(), 5u);
    return keys;
  };

  auto baseline = run(0.0, 20);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(run(1.0, 20), baseline) << "alpha changed the match set";
  EXPECT_EQ(run(0.5, 1), baseline) << "cache size changed the match set";
}

// -------------------------------- joins cross-validated over partitions --

// The merge scan over each bucket's page and the B+tree probe restricted
// to the bucket's range must find the same matches on every bucket.
TEST(JoinCrossValidationTest, MergeAndBTreeAgreeOverEveryBucket) {
  auto objects = SmallSky(25'000, 743);
  auto partition = storage::PartitionCatalog(objects, 1000);
  ASSERT_TRUE(partition.ok());
  auto sorted = objects;
  std::sort(sorted.begin(), sorted.end(), storage::ObjectHtmLess);
  auto tree = storage::BTreeIndex::BulkLoad(std::move(sorted));
  ASSERT_TRUE(tree.ok());

  Rng rng(751);
  query::WorkloadEntry entry;
  entry.query_id = 9;
  for (int i = 0; i < 200; ++i) {
    const auto& co = objects[rng.UniformU64(objects.size())];
    SkyPoint jittered{co.ra_deg, std::clamp(co.dec_deg + 0.001, -89.9, 89.9)};
    entry.objects.push_back(query::MakeQueryObject(i, jittered, 20.0));
  }

  size_t total_matches = 0;
  for (const auto& bucket : partition->buckets) {
    std::vector<query::Match> merge_out, indexed_out;
    const std::vector<query::WorkloadEntry> batch = {entry};
    join::MergeCrossMatch(bucket, batch, &merge_out);
    join::IndexedCrossMatch(*tree, bucket.range(), batch, &indexed_out);
    std::set<MatchKey> a, b;
    for (const auto& m : merge_out) {
      a.insert({m.query_id, m.query_object_id, m.catalog_object_id});
    }
    for (const auto& m : indexed_out) {
      b.insert({m.query_id, m.query_object_id, m.catalog_object_id});
    }
    EXPECT_EQ(a, b) << "bucket " << bucket.index();
    total_matches += a.size();
  }
  EXPECT_GT(total_matches, 0u);
}

// ------------------------------------------ engine vs facade equivalence --

TEST(EngineFacadeEquivalenceTest, SameBatchCostsAndCompletions) {
  // The facade and the engine wire the same components; an immediate-
  // arrival engine run and a submit-all-then-drain facade run over the
  // same queries must do identical work.
  auto objects = SmallSky(20'000, 757);

  workload::TraceConfig tc;
  tc.num_queries = 15;
  tc.match_radius_arcsec = 600.0;
  tc.seed = 761;
  auto trace = workload::GenerateTrace(tc);
  ASSERT_TRUE(trace.ok());

  // Engine run.
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = 500;
  auto engine_catalog = storage::Catalog::Build(objects, catalog_options);
  ASSERT_TRUE(engine_catalog.ok());
  sched::LifeRaftConfig sched_config;
  sched_config.alpha = 0.0;
  auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
      (*engine_catalog)->store(), storage::DiskModel{}, sched_config);
  sim::SimEngine engine(engine_catalog->get(), std::move(scheduler), {});
  auto engine_metrics =
      engine.Run(*trace, sim::ImmediateArrivals(trace->size()));
  ASSERT_TRUE(engine_metrics.ok());

  // Facade run.
  core::LifeRaftOptions options;
  options.objects_per_bucket = 500;
  options.alpha = 0.0;
  auto facade = core::LifeRaft::Create(objects, options);
  ASSERT_TRUE(facade.ok());
  for (const auto& q : *trace) ASSERT_TRUE((*facade)->Submit(q).ok());
  auto completions = (*facade)->Drain();
  ASSERT_TRUE(completions.ok());

  EXPECT_EQ(completions->size(), trace->size());
  EXPECT_DOUBLE_EQ((*facade)->now_ms(), engine_metrics->makespan_ms);
}

}  // namespace
}  // namespace liferaft
