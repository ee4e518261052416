// Tests for workload overflow (paper §6 future work): the spill file's
// round trip and corruption checks, the WorkloadManager's budget
// enforcement and transparent restore, and the end-to-end invariant that
// spilling changes neither scheduling metadata nor query results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/batch_pipeline.h"
#include "join/evaluator.h"
#include "query/preprocessor.h"
#include "query/spill.h"
#include "query/workload.h"
#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::query {
namespace {

std::string TempPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("liferaft_spill_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

WorkloadEntry MakeEntry(QueryId id, TimeMs arrival, int n_objects,
                        uint64_t seed) {
  Rng rng(seed);
  WorkloadEntry e;
  e.query_id = id;
  e.arrival_ms = arrival;
  e.predicate.max_mag = 21.5f;
  for (int i = 0; i < n_objects; ++i) {
    e.objects.push_back(MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-80, 80)}, 3.0));
  }
  return e;
}

// ----------------------------------------------------- WorkloadSpillFile --

TEST(SpillFileTest, RoundTripPreservesEntries) {
  auto file = WorkloadSpillFile::Create(TempPath("rt"));
  ASSERT_TRUE(file.ok());
  std::vector<WorkloadEntry> original = {MakeEntry(1, 100.0, 20, 801),
                                         MakeEntry(2, 200.0, 5, 809)};
  ASSERT_TRUE((*file)->Spill(7, original).ok());
  EXPECT_TRUE((*file)->HasSegments(7));
  EXPECT_FALSE((*file)->HasSegments(8));

  std::vector<WorkloadEntry> restored;
  uint64_t bytes = 0;
  ASSERT_TRUE((*file)->Restore(7, &restored, &bytes).ok());
  EXPECT_GT(bytes, 0u);
  EXPECT_FALSE((*file)->HasSegments(7));

  ASSERT_EQ(restored.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].query_id, original[i].query_id);
    EXPECT_DOUBLE_EQ(restored[i].arrival_ms, original[i].arrival_ms);
    EXPECT_FLOAT_EQ(restored[i].predicate.max_mag,
                    original[i].predicate.max_mag);
    ASSERT_EQ(restored[i].objects.size(), original[i].objects.size());
    for (size_t j = 0; j < original[i].objects.size(); ++j) {
      const auto& a = restored[i].objects[j];
      const auto& b = original[i].objects[j];
      EXPECT_EQ(a.id, b.id);
      EXPECT_DOUBLE_EQ(a.ra_deg, b.ra_deg);
      EXPECT_DOUBLE_EQ(a.dec_deg, b.dec_deg);
      EXPECT_EQ(a.htm_ranges.ToString(), b.htm_ranges.ToString());
    }
  }
}

TEST(SpillFileTest, MultipleSegmentsPerBucketAccumulate) {
  auto file = WorkloadSpillFile::Create(TempPath("multi"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Spill(3, {MakeEntry(1, 0, 4, 811)}).ok());
  ASSERT_TRUE((*file)->Spill(3, {MakeEntry(2, 0, 6, 821)}).ok());
  ASSERT_TRUE((*file)->Spill(9, {MakeEntry(3, 0, 2, 823)}).ok());
  std::vector<WorkloadEntry> restored;
  ASSERT_TRUE((*file)->Restore(3, &restored).ok());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].query_id, 1u);
  EXPECT_EQ(restored[1].query_id, 2u);
  EXPECT_TRUE((*file)->HasSegments(9));
  EXPECT_EQ((*file)->segments_spilled(), 3u);
}

TEST(SpillFileTest, RestoreOfUnknownBucketIsNoop) {
  auto file = WorkloadSpillFile::Create(TempPath("noop"));
  ASSERT_TRUE(file.ok());
  std::vector<WorkloadEntry> restored;
  uint64_t bytes = 123;
  ASSERT_TRUE((*file)->Restore(42, &restored, &bytes).ok());
  EXPECT_TRUE(restored.empty());
}

TEST(SpillFileTest, RejectsEmptySpillAndBadPath) {
  auto file = WorkloadSpillFile::Create(TempPath("empty"));
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Spill(0, {}).ok());
  EXPECT_FALSE(WorkloadSpillFile::Create("/nonexistent/dir/spill").ok());
}

TEST(SpillFileTest, ScratchFileRemovedOnDestruction) {
  std::string path = TempPath("cleanup");
  {
    auto file = WorkloadSpillFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Spill(0, {MakeEntry(1, 0, 3, 827)}).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --------------------------------------------- WorkloadManager with spill --

class SpillManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<WorkloadManager>(32);
  }

  // Admits a query with one workload of n objects on bucket b.
  void Place(QueryId id, storage::BucketIndex b, int n, TimeMs arrival) {
    CrossMatchQuery q;
    q.id = id;
    q.arrival_ms = arrival;
    BucketWorkload w;
    w.bucket = b;
    for (int i = 0; i < n; ++i) {
      QueryObject qo;
      qo.id = static_cast<uint64_t>(i);
      qo.htm_ranges.Add(htm::LevelMin(htm::kObjectLevel),
                        htm::LevelMin(htm::kObjectLevel));
      w.objects.push_back(qo);
    }
    ASSERT_TRUE(manager_->Admit(q, {w}).ok());
  }

  std::unique_ptr<WorkloadManager> manager_;
};

TEST_F(SpillManagerTest, BudgetEnforcedAndMetadataRetained) {
  ASSERT_TRUE(manager_->EnableSpill(TempPath("mgr"), 100).ok());
  Place(1, 3, 80, 10.0);
  Place(2, 7, 50, 20.0);  // 130 resident -> spills the largest (bucket 3)
  EXPECT_LE(manager_->resident_objects(), 100u);
  EXPECT_EQ(manager_->total_pending_objects(), 130u);
  EXPECT_GE(manager_->spill_stats().segments_spilled, 1u);
  // Metadata survives the spill: bucket 3's queue still reports its size
  // and age even though its payload is on disk.
  EXPECT_EQ(manager_->queue(3).total_objects(), 80u);
  EXPECT_EQ(manager_->queue(3).resident_objects(), 0u);
  EXPECT_DOUBLE_EQ(manager_->queue(3).oldest_arrival_ms(), 10.0);
  EXPECT_FALSE(manager_->queue(3).empty());
  EXPECT_EQ(manager_->active_buckets().count(3), 1u);
}

TEST_F(SpillManagerTest, TakeBucketRestoresSpilledEntries) {
  ASSERT_TRUE(manager_->EnableSpill(TempPath("take"), 50).ok());
  Place(1, 5, 60, 0.0);   // spilled immediately (60 > 50)
  Place(2, 5, 10, 5.0);   // resident
  EXPECT_EQ(manager_->queue(5).total_objects(), 70u);

  std::vector<QueryId> completed;
  uint64_t restored_bytes = 0;
  auto entries = manager_->TakeBucket(5, &completed, &restored_bytes);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  // Both the resident and the spilled entry come back.
  size_t total = 0;
  for (const auto& e : *entries) total += e.objects.size();
  EXPECT_EQ(total, 70u);
  EXPECT_GT(restored_bytes, 0u);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(manager_->total_pending_objects(), 0u);
  EXPECT_EQ(manager_->resident_objects(), 0u);
}

// Flips one byte of the file at `offset` in place.
void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  char c = 0;
  f.seekg(offset);
  ASSERT_TRUE(f.read(&c, 1));
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(offset);
  ASSERT_TRUE(f.write(&c, 1));
}

// A corrupt segment must fail the dispatch in every build type, name the
// bucket, and leave the work pending rather than drop it.
TEST_F(SpillManagerTest, CorruptSegmentFailsTakeBucketAndKeepsTheWork) {
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(manager_->EnableSpill(path, 50).ok());
  Place(1, 5, 60, 0.0);  // first segment, at offset 0
  Place(2, 9, 60, 1.0);  // second segment; its seek flushes the first
  ASSERT_EQ(manager_->spill_stats().segments_spilled, 2u);
  // Byte 20 is inside bucket 5's first entry (12-byte segment header,
  // 4-byte entry count, then the query id).
  FlipByte(path, 20);

  std::vector<QueryId> completed;
  uint64_t restored_bytes = 0;
  auto entries = manager_->TakeBucket(5, &completed, &restored_bytes);
  ASSERT_FALSE(entries.ok());
  EXPECT_EQ(entries.status().code(), StatusCode::kCorruption);
  EXPECT_NE(entries.status().message().find("bucket 5"), std::string::npos)
      << entries.status().ToString();
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(manager_->PendingParts(1), 1u);
  EXPECT_EQ(manager_->total_pending_objects(), 120u);
  EXPECT_EQ(manager_->queue(5).total_objects(), 60u);
  EXPECT_EQ(manager_->active_buckets().count(5), 1u);
  EXPECT_EQ(manager_->spill_stats().segments_restored, 0u);

  // The intact segment still restores.
  auto other = manager_->TakeBucket(9, &completed, &restored_bytes);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_EQ(other->size(), 1u);
  EXPECT_EQ((*other)[0].objects.size(), 60u);
  EXPECT_EQ(completed, std::vector<QueryId>{2});
}

TEST_F(SpillManagerTest, NoSpillWithoutEnable) {
  Place(1, 2, 1000, 0.0);
  EXPECT_EQ(manager_->resident_objects(), 1000u);
  EXPECT_EQ(manager_->spill_stats().segments_spilled, 0u);
}

TEST_F(SpillManagerTest, EnableSpillValidation) {
  EXPECT_FALSE(manager_->EnableSpill(TempPath("v"), 0).ok());
  ASSERT_TRUE(manager_->EnableSpill(TempPath("v2"), 10).ok());
  EXPECT_EQ(manager_->EnableSpill(TempPath("v3"), 10).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace liferaft::query

namespace liferaft::exec {
namespace {

// The pipeline surfaces a failed restore as its Step's Status: the run
// stops with an error naming the bucket instead of leaving the query
// pending forever.
TEST(SpillPipelineTest, CorruptSegmentFailsTheStepNamingTheBucket) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 2000;
  gen.seed = 7;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  storage::CatalogOptions options;
  options.objects_per_bucket = 500;
  auto catalog = storage::Catalog::Build(std::move(*objects), options);
  ASSERT_TRUE(catalog.ok());
  ASSERT_GE((*catalog)->num_buckets(), 4u);

  storage::BucketCache cache((*catalog)->store(), 4);
  join::JoinEvaluator evaluator(&cache, (*catalog)->index(),
                                storage::DiskModel{}, join::HybridConfig{});
  query::WorkloadManager manager((*catalog)->num_buckets());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("liferaft_spill_pipeline_" + std::to_string(::getpid())))
          .string();
  ASSERT_TRUE(manager.EnableSpill(path, 50).ok());
  // Two single-bucket queries of 60 objects each: both spill, bucket 1's
  // first.
  for (query::QueryId id : {1u, 2u}) {
    const storage::BucketIndex b = id == 1 ? 1 : 3;
    const htm::IdRange range = (*catalog)->bucket_map().RangeOf(b);
    query::CrossMatchQuery q;
    q.id = id;
    query::BucketWorkload w;
    w.bucket = b;
    for (uint64_t i = 0; i < 60; ++i) {
      query::QueryObject qo;
      qo.id = i;
      qo.htm_ranges.Add(range.lo, range.lo);
      w.objects.push_back(qo);
    }
    ASSERT_TRUE(manager.Admit(q, {w}).ok());
  }
  ASSERT_EQ(manager.spill_stats().segments_spilled, 2u);
  query::FlipByte(path, 20);

  sched::LifeRaftScheduler scheduler((*catalog)->store(),
                                     storage::DiskModel{},
                                     sched::LifeRaftConfig{});
  BatchPipeline pipeline(&scheduler, &manager, &evaluator, PipelineConfig{});
  Status failure;
  for (int step = 0; step < 4 && failure.ok(); ++step) {
    auto outcome = pipeline.Step(0.0, /*collect_matches=*/false);
    if (!outcome.ok()) {
      failure = outcome.status();
    } else if (!outcome->has_value()) {
      break;
    }
  }
  EXPECT_EQ(failure.code(), StatusCode::kCorruption) << failure.ToString();
  EXPECT_NE(failure.message().find("bucket 1"), std::string::npos)
      << failure.ToString();
  EXPECT_EQ(manager.PendingParts(1), 1u);
}

}  // namespace
}  // namespace liferaft::exec

namespace liferaft::sim {
namespace {

TEST(SpillEndToEndTest, SpillingDoesNotChangeResultsOnlyAddsIo) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 50'000;
  gen.seed = 829;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = 1000;
  auto catalog = storage::Catalog::Build(std::move(*objects),
                                         catalog_options);
  ASSERT_TRUE(catalog.ok());

  workload::TraceConfig tc;
  tc.num_queries = 50;
  tc.match_radius_arcsec = 900.0;
  tc.seed = 839;
  auto trace = workload::GenerateTrace(tc);
  ASSERT_TRUE(trace.ok());

  auto run = [&](uint64_t budget) {
    sched::LifeRaftConfig sched_config;
    sched_config.alpha = 0.25;
    auto scheduler = std::make_unique<sched::LifeRaftScheduler>(
        (*catalog)->store(), storage::DiskModel{}, sched_config);
    EngineConfig config;
    if (budget > 0) {
      config.spill_path =
          (std::filesystem::temp_directory_path() /
           ("liferaft_e2e_spill_" + std::to_string(::getpid())))
              .string();
      config.workload_memory_budget = budget;
    }
    SimEngine engine(catalog->get(), std::move(scheduler), config);
    auto metrics = engine.Run(*trace, ImmediateArrivals(trace->size()));
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return *metrics;
  };

  auto unlimited = run(0);
  auto tight = run(500);  // far below the trace's pending footprint

  EXPECT_GT(tight.spill.segments_spilled, 0u) << "budget never triggered";
  EXPECT_EQ(tight.spill.segments_restored > 0, true);
  // Same queries, same matches, same bucket reads.
  EXPECT_EQ(tight.total_matches, unlimited.total_matches);
  EXPECT_EQ(tight.queries_completed, unlimited.queries_completed);
  EXPECT_EQ(tight.store.bucket_reads, unlimited.store.bucket_reads);
  // Spilling costs extra time.
  EXPECT_GE(tight.makespan_ms, unlimited.makespan_ms);
}

}  // namespace
}  // namespace liferaft::sim
