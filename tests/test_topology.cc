// Tests for the multi-volume storage topology: the bucket->volume map
// itself (storage::StorageTopology) and the per-arm accounting it drives
// through exec::BatchPipeline and sim::SimEngine; plus concurrent FileStore
// reads. The key contracts:
//  * num_volumes == 1 reproduces the pre-topology engine byte for byte
//    (same makespan, hidden time, and every cache/store counter);
//  * adding arms strictly shrinks a prefetch drain's virtual makespan
//    while join results and total modeled disk work stay identical;
//  * join results are byte-identical across placement policies — where a
//    bucket lives can only change timing, never matching.

#include "storage/topology.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::storage {
namespace {

TEST(StorageTopologyTest, SingleVolumeMapsEverythingToVolumeZero) {
  for (VolumePlacement placement :
       {VolumePlacement::kRange, VolumePlacement::kHash}) {
    StorageTopologyConfig config;
    config.num_volumes = 1;
    config.placement = placement;
    auto topology = StorageTopology::Create(17, config, DiskModelParams{});
    ASSERT_TRUE(topology.ok());
    EXPECT_EQ(topology->num_volumes(), 1u);
    EXPECT_TRUE(topology->uniform());
    for (BucketIndex b = 0; b < 17; ++b) {
      EXPECT_EQ(topology->VolumeOf(b), 0u);
    }
  }
}

TEST(StorageTopologyTest, RangePlacementSplitsContiguouslyWithRemainder) {
  StorageTopologyConfig config;
  config.num_volumes = 3;
  config.placement = VolumePlacement::kRange;
  // 8 buckets over 3 volumes: 3 + 3 + 2 (remainder on the low volumes).
  auto topology = StorageTopology::Create(8, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  std::vector<VolumeIndex> expected = {0, 0, 0, 1, 1, 1, 2, 2};
  for (BucketIndex b = 0; b < 8; ++b) {
    EXPECT_EQ(topology->VolumeOf(b), expected[b]) << "bucket " << b;
  }
}

TEST(StorageTopologyTest, HashPlacementStripes) {
  StorageTopologyConfig config;
  config.num_volumes = 3;
  config.placement = VolumePlacement::kHash;
  auto topology = StorageTopology::Create(8, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  for (BucketIndex b = 0; b < 8; ++b) {
    EXPECT_EQ(topology->VolumeOf(b), b % 3) << "bucket " << b;
  }
}

TEST(StorageTopologyTest, ClampsVolumesToBucketCount) {
  StorageTopologyConfig config;
  config.num_volumes = 16;
  auto topology = StorageTopology::Create(5, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  EXPECT_EQ(topology->num_volumes(), 5u);
  // ... but never by silently dropping explicit per-volume params.
  config.volume_disk.assign(16, DiskModelParams{});
  EXPECT_FALSE(StorageTopology::Create(5, config, DiskModelParams{}).ok());
}

TEST(StorageTopologyTest, Validation) {
  StorageTopologyConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_volumes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = StorageTopologyConfig{};
  config.num_volumes = 2;
  config.volume_disk.assign(3, DiskModelParams{});  // size mismatch
  EXPECT_FALSE(config.Validate().ok());
  config.volume_disk.assign(2, DiskModelParams{});
  config.volume_disk[1].transfer_mb_per_s = 0.0;  // invalid params
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_FALSE(
      StorageTopology::Create(0, StorageTopologyConfig{}, DiskModelParams{})
          .ok());
}

TEST(StorageTopologyTest, PerVolumeModelsAndUniformFlag) {
  StorageTopologyConfig config;
  config.num_volumes = 2;
  config.volume_disk.assign(2, DiskModelParams{});
  config.volume_disk[1].transfer_mb_per_s /= 2.0;  // volume 1 half speed
  auto topology = StorageTopology::Create(4, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  EXPECT_FALSE(topology->uniform());
  const uint64_t bytes = 4 << 20;
  EXPECT_GT(topology->model(1).SequentialReadMs(bytes),
            topology->model(0).SequentialReadMs(bytes));
  // Range placement over 4 buckets: 0,1 -> volume 0; 2,3 -> volume 1.
  EXPECT_DOUBLE_EQ(topology->ModelFor(0).SequentialReadMs(bytes),
                   topology->model(0).SequentialReadMs(bytes));
  EXPECT_DOUBLE_EQ(topology->ModelFor(3).SequentialReadMs(bytes),
                   topology->model(1).SequentialReadMs(bytes));
}

TEST(StorageTopologyTest, SpillArmIsNotABucketVolume) {
  StorageTopologyConfig config;
  config.num_volumes = 3;
  config.spill_arm = true;
  auto topology = StorageTopology::Create(9, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  EXPECT_TRUE(topology->has_spill_arm());
  // The spill arm is not counted among the volumes and owns no buckets.
  EXPECT_EQ(topology->num_volumes(), 3u);
  for (BucketIndex b = 0; b < 9; ++b) {
    EXPECT_LT(topology->VolumeOf(b), 3u);
  }
  config.spill_arm = false;
  auto plain = StorageTopology::Create(9, config, DiskModelParams{});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_spill_arm());
}

// ------------------------------------------ concurrent FileStore reads --

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("liferaft_topology_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

class FileStoreConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 6000;
    gen.seed = 911;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    auto partition = PartitionCatalog(std::move(*objects), 1000);
    ASSERT_TRUE(partition.ok());
    path_ = TempPath("filestore");
    ASSERT_TRUE(FileStore::Create(path_, partition->buckets).ok());
    auto store = FileStore::Open(path_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::unique_ptr<FileStore> store_;
};

// Every read is a positional pread(2) on the store's one descriptor, so
// I/O worker threads reading overlapping buckets at once all see whole
// pages.
TEST_F(FileStoreConcurrencyTest, ConcurrentReadsAreConsistent) {
  std::vector<std::future<uint64_t>> futures;
  for (size_t t = 0; t < 4; ++t) {
    futures.push_back(std::async(std::launch::async, [this, t] {
      uint64_t objects = 0;
      for (int round = 0; round < 8; ++round) {
        for (BucketIndex b = 0; b < store_->num_buckets(); ++b) {
          auto bucket = store_->ReadBucketForPrefetch(
              (b + static_cast<BucketIndex>(t)) %
              static_cast<BucketIndex>(store_->num_buckets()));
          if (bucket.ok()) objects += (*bucket)->size();
        }
      }
      return objects;
    }));
  }
  uint64_t total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 4u * 8u * 6000u);
}

}  // namespace
}  // namespace liferaft::storage

// ---------------------------------------------- engine-level topology --

namespace liferaft::sim {
namespace {

class MultiVolumeDrainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 30'000;
    gen.seed = 43;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;  // 30 buckets
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc;
    tc.num_queries = 24;
    tc.max_objects_per_query = 800;
    tc.match_radius_arcsec = 600.0;
    tc.seed = 47;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
    arrivals_.assign(trace_.size(), 0.0);  // saturated drain
  }

  RunMetrics Drain(const EngineConfig& config,
                   std::map<query::QueryId, uint64_t>* matches = nullptr) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    SimEngine engine(catalog_.get(),
                     std::make_unique<sched::LifeRaftScheduler>(
                         catalog_->store(), storage::DiskModel{}, sc),
                     config);
    auto metrics = engine.Run(trace_, arrivals_);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (matches != nullptr) {
      matches->clear();
      for (const QueryOutcome& o : engine.outcomes()) {
        (*matches)[o.id] = o.matches;
      }
    }
    return metrics.ok() ? *metrics : RunMetrics{};
  }

  EngineConfig PrefetchConfig(size_t num_volumes,
                              storage::VolumePlacement placement =
                                  storage::VolumePlacement::kRange) {
    EngineConfig config;
    config.enable_prefetch = true;
    config.prefetch_depth = 2;
    config.collect_matches = true;
    config.topology.num_volumes = num_volumes;
    config.topology.placement = placement;
    return config;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
  std::vector<TimeMs> arrivals_;
};

// An explicit single-volume topology — either placement — is the
// pre-topology engine: every modeled time and every counter identical.
TEST_F(MultiVolumeDrainFixture, SingleVolumeReproducesDefaultByteForByte) {
  std::map<query::QueryId, uint64_t> base_matches;
  RunMetrics base = Drain(PrefetchConfig(1), &base_matches);
  ASSERT_EQ(base.queries_completed, trace_.size());
  ASSERT_EQ(base.volumes.size(), 1u);

  for (storage::VolumePlacement placement :
       {storage::VolumePlacement::kRange, storage::VolumePlacement::kHash}) {
    std::map<query::QueryId, uint64_t> matches;
    RunMetrics m = Drain(PrefetchConfig(1, placement), &matches);
    EXPECT_EQ(m.makespan_ms, base.makespan_ms);
    EXPECT_EQ(m.prefetch_hidden_ms, base.prefetch_hidden_ms);
    EXPECT_EQ(m.cache.hits, base.cache.hits);
    EXPECT_EQ(m.cache.misses, base.cache.misses);
    EXPECT_EQ(storage::SumOverArms(m.volumes).prefetch_issued,
              storage::SumOverArms(base.volumes).prefetch_issued);
    EXPECT_EQ(storage::SumOverArms(m.volumes).prefetch_claims,
              storage::SumOverArms(base.volumes).prefetch_claims);
    EXPECT_EQ(m.store.bucket_reads, base.store.bucket_reads);
    EXPECT_EQ(m.store.bytes_read, base.store.bytes_read);
    EXPECT_EQ(matches, base_matches);
  }
}

// The tentpole acceptance: more arms strictly shrink the prefetch drain's
// virtual makespan — overlapped fetches, not dropped work: join results
// and the total modeled disk-busy time are unchanged.
TEST_F(MultiVolumeDrainFixture, MakespanStrictlyImprovesWithMoreArms) {
  std::map<query::QueryId, uint64_t> matches1, matches2, matches4;
  RunMetrics one = Drain(PrefetchConfig(1), &matches1);
  RunMetrics two = Drain(PrefetchConfig(2), &matches2);
  RunMetrics four = Drain(PrefetchConfig(4), &matches4);

  EXPECT_LT(two.makespan_ms, one.makespan_ms);
  EXPECT_LT(four.makespan_ms, two.makespan_ms);
  EXPECT_GT(two.prefetch_hidden_ms, one.prefetch_hidden_ms);
  EXPECT_GT(four.prefetch_hidden_ms, two.prefetch_hidden_ms);
  EXPECT_EQ(matches2, matches1);
  EXPECT_EQ(matches4, matches1);

  auto total_busy = [](const RunMetrics& m) {
    TimeMs busy = 0.0;
    for (const storage::VolumeIoStats& v : m.volumes) busy += v.busy_ms;
    return busy;
  };
  // Same physical work, spread over more arms (FP sum order may differ
  // across volume counts, so compare to a tolerance of a few ULPs' worth).
  EXPECT_NEAR(total_busy(two), total_busy(one), 1e-6);
  EXPECT_NEAR(total_busy(four), total_busy(one), 1e-6);
}

// Placement decides where a bucket lives — which can only change timing,
// never matching. Same logical workload => byte-identical join results.
TEST_F(MultiVolumeDrainFixture, ResultsByteIdenticalAcrossPlacements) {
  std::map<query::QueryId, uint64_t> range_matches, hash_matches;
  RunMetrics range = Drain(
      PrefetchConfig(4, storage::VolumePlacement::kRange), &range_matches);
  RunMetrics hash = Drain(
      PrefetchConfig(4, storage::VolumePlacement::kHash), &hash_matches);
  EXPECT_EQ(range.queries_completed, hash.queries_completed);
  EXPECT_EQ(range.total_matches, hash.total_matches);
  EXPECT_EQ(range_matches, hash_matches);
  // Both placements read every byte they serve exactly once per miss.
  EXPECT_EQ(range.store.bucket_reads, hash.store.bucket_reads);
}

// Per-arm telemetry reconciles with the global ledgers.
TEST_F(MultiVolumeDrainFixture, PerVolumeTelemetryReconciles) {
  RunMetrics m = Drain(PrefetchConfig(4));
  ASSERT_EQ(m.volumes.size(), 4u);
  uint64_t issued = 0;
  uint64_t claims = 0;
  TimeMs hidden = 0.0;
  for (const storage::VolumeIoStats& v : m.volumes) {
    issued += v.prefetch_issued;
    claims += v.prefetch_claims;
    hidden += v.hidden_ms;
    EXPECT_LE(v.consumed_until_ms, m.makespan_ms);
    EXPECT_GE(v.busy_until_ms, v.consumed_until_ms);
  }
  EXPECT_EQ(issued, storage::SumOverArms(m.volumes).prefetch_issued);
  EXPECT_EQ(claims, storage::SumOverArms(m.volumes).prefetch_claims);
  EXPECT_NEAR(hidden, m.prefetch_hidden_ms, 1e-9);
  // A saturated 4-arm drain keeps every arm busy.
  for (const storage::VolumeIoStats& v : m.volumes) {
    EXPECT_GT(v.busy_ms, 0.0);
  }
}

// Heterogeneous per-volume disk parameters: slowing one arm down slows
// every batch served from it. The factor is drastic (32x) because a
// mildly slower arm can still hide its few fetches entirely behind
// compute — the point of the pipeline — leaving the makespan untouched;
// past the hiding capacity the residuals must surface end to end.
TEST_F(MultiVolumeDrainFixture, SlowVolumeRaisesMakespan) {
  RunMetrics uniform = Drain(PrefetchConfig(4));
  EngineConfig slow = PrefetchConfig(4);
  slow.topology.volume_disk.assign(4, storage::DiskModelParams{});
  slow.topology.volume_disk[0].transfer_mb_per_s /= 32.0;
  std::map<query::QueryId, uint64_t> slow_matches, uniform_matches;
  RunMetrics degraded = Drain(slow, &slow_matches);
  RunMetrics base = Drain(PrefetchConfig(4), &uniform_matches);
  EXPECT_GT(degraded.makespan_ms, uniform.makespan_ms);
  EXPECT_EQ(slow_matches, uniform_matches) << "cost model must not change "
                                              "matching";
}

// ------------------------------------------------ spill-arm satellite --

// A dedicated spill arm with spilling disabled is pure configuration: no
// restore ever runs, so every modeled time and counter must reproduce the
// plain topology byte for byte — the only visible difference is the
// spill arm's empty telemetry row.
TEST_F(MultiVolumeDrainFixture, SpillArmWithoutSpillIsByteIdentical) {
  std::map<query::QueryId, uint64_t> base_matches, arm_matches;
  RunMetrics base = Drain(PrefetchConfig(2), &base_matches);
  EngineConfig with_arm = PrefetchConfig(2);
  with_arm.topology.spill_arm = true;
  RunMetrics m = Drain(with_arm, &arm_matches);

  EXPECT_EQ(m.makespan_ms, base.makespan_ms);
  EXPECT_EQ(m.prefetch_hidden_ms, base.prefetch_hidden_ms);
  EXPECT_EQ(m.cache.hits, base.cache.hits);
  EXPECT_EQ(m.cache.misses, base.cache.misses);
  EXPECT_EQ(storage::SumOverArms(m.volumes).prefetch_issued,
            storage::SumOverArms(base.volumes).prefetch_issued);
  EXPECT_EQ(m.store.bucket_reads, base.store.bucket_reads);
  EXPECT_EQ(arm_matches, base_matches);
  ASSERT_EQ(base.volumes.size(), 2u);
  ASSERT_EQ(m.volumes.size(), 3u);
  for (size_t v = 0; v < 2; ++v) {
    EXPECT_EQ(m.volumes[v].busy_ms, base.volumes[v].busy_ms);
    EXPECT_EQ(m.volumes[v].foreground_reads, base.volumes[v].foreground_reads);
    EXPECT_EQ(m.volumes[v].prefetch_issued, base.volumes[v].prefetch_issued);
  }
  EXPECT_EQ(m.volumes[2].busy_ms, 0.0);
  EXPECT_EQ(m.volumes[2].foreground_reads, 0u);
  EXPECT_EQ(m.volumes[2].foreground_bytes, 0u);
}

// With prefetching off, the spill arm is pure accounting: restores cost
// the same foreground time (the join still waits for its objects), so the
// run is identical — the restore busy time just moves from the bucket arm
// onto the spill arm's row.
TEST_F(MultiVolumeDrainFixture, SpillArmMovesRestoreBusyTimeOffBucketArm) {
  auto spill_config = [&](bool spill_arm) {
    EngineConfig config;  // no prefetch: scheduling independent of arms
    config.collect_matches = true;
    config.topology.spill_arm = spill_arm;
    config.spill_path =
        (std::filesystem::temp_directory_path() /
         ("liferaft_spill_arm_" + std::to_string(::getpid()) +
          (spill_arm ? "_on" : "_off")))
            .string();
    config.workload_memory_budget = 2000;  // force spilling
    return config;
  };
  std::map<query::QueryId, uint64_t> on_matches, off_matches;
  RunMetrics on = Drain(spill_config(true), &on_matches);
  RunMetrics off = Drain(spill_config(false), &off_matches);

  ASSERT_GT(on.spill.segments_restored, 0u) << "budget never triggered";
  EXPECT_EQ(on.spill.bytes_restored, off.spill.bytes_restored);
  EXPECT_EQ(on.makespan_ms, off.makespan_ms);
  EXPECT_EQ(on.store.bucket_reads, off.store.bucket_reads);
  EXPECT_EQ(on_matches, off_matches);
  ASSERT_EQ(off.volumes.size(), 1u);
  ASSERT_EQ(on.volumes.size(), 2u);
  // The restore I/O moved arm: bucket arm plus spill arm add back up to
  // the single-arm busy total (separate accumulators, so allow FP slack).
  EXPECT_GT(on.volumes[1].busy_ms, 0.0);
  EXPECT_LT(on.volumes[0].busy_ms, off.volumes[0].busy_ms);
  EXPECT_NEAR(on.volumes[0].busy_ms + on.volumes[1].busy_ms,
              off.volumes[0].busy_ms, 1e-6);
  EXPECT_EQ(on.volumes[1].foreground_bytes, on.spill.bytes_restored);
  EXPECT_EQ(on.volumes[0].foreground_reads, off.volumes[0].foreground_reads);
}

// With prefetching on, the spill arm changes the modeled timeline — bets
// no longer slip by restore I/O — but never the matching, and the run
// stays deterministic.
TEST_F(MultiVolumeDrainFixture, SpillArmWithPrefetchKeepsResultsDeterministic) {
  auto spill_config = [&](bool spill_arm, const char* tag) {
    EngineConfig config = PrefetchConfig(2);
    config.topology.spill_arm = spill_arm;
    config.spill_path =
        (std::filesystem::temp_directory_path() /
         ("liferaft_spill_arm_pf_" + std::to_string(::getpid()) + tag))
            .string();
    config.workload_memory_budget = 2000;
    return config;
  };
  std::map<query::QueryId, uint64_t> on_matches, off_matches, again_matches;
  RunMetrics on = Drain(spill_config(true, "_on"), &on_matches);
  RunMetrics off = Drain(spill_config(false, "_off"), &off_matches);
  RunMetrics again = Drain(spill_config(true, "_again"), &again_matches);

  ASSERT_GT(on.spill.segments_restored, 0u) << "budget never triggered";
  EXPECT_EQ(on_matches, off_matches);
  EXPECT_EQ(on.total_matches, off.total_matches);
  // Deterministic replay with the arm on.
  EXPECT_EQ(on.makespan_ms, again.makespan_ms);
  EXPECT_EQ(on.prefetch_hidden_ms, again.prefetch_hidden_ms);
  EXPECT_EQ(on_matches, again_matches);
  // Freeing the bucket arm from restore I/O can only help the drain.
  EXPECT_LE(on.makespan_ms, off.makespan_ms);
}

}  // namespace
}  // namespace liferaft::sim
