// Tests for the real asynchronous I/O backend: the per-volume submission
// queues of storage/async_io.h (completion delivery, fault injection,
// checksum failures, leak-free shutdown with reads in flight) and the
// engine's measured execution mode (EngineConfig::io_mode == kReal),
// whose contract is: identical join results to the modeled oracle, with
// wall-clock timing and per-volume queue telemetry instead of DiskModel
// arithmetic — and zero change to modeled-mode output.

#include "storage/async_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/mem_store.h"
#include "storage/partitioner.h"
#include "storage/topology.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::storage {
namespace {

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("liferaft_async_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

std::unique_ptr<MemStore> MakeMemStore(size_t num_objects, uint64_t seed) {
  workload::CatalogGenConfig gen;
  gen.num_objects = num_objects;
  gen.seed = seed;
  auto objects = workload::GenerateCatalog(gen);
  EXPECT_TRUE(objects.ok());
  auto partition = PartitionCatalog(std::move(*objects), 1000);
  EXPECT_TRUE(partition.ok());
  return std::make_unique<MemStore>(std::move(*partition));
}

/// Fault-injection wrapper: delegates to an inner store but can delay,
/// fail, or corrupt individual buckets' async-path reads. Delays model a
/// slow arm (and force cross-volume completion reordering); failures and
/// corruption exercise the reader's error accounting.
class FaultInjectionStore : public BucketStore {
 public:
  explicit FaultInjectionStore(std::unique_ptr<MemStore> inner)
      : inner_(std::move(inner)) {}

  size_t num_buckets() const override { return inner_->num_buckets(); }
  const BucketMap& bucket_map() const override {
    return inner_->bucket_map();
  }
  size_t BucketObjectCount(BucketIndex index) const override {
    return inner_->BucketObjectCount(index);
  }
  Result<std::shared_ptr<const Bucket>> ReadBucket(
      BucketIndex index) override {
    return inner_->ReadBucket(index);
  }
  bool SupportsConcurrentReads() const override { return true; }
  Result<std::shared_ptr<const Bucket>> ReadBucketForPrefetch(
      BucketIndex index) override {
    auto delay = delays_ms_.find(index);
    if (delay != delays_ms_.end()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(delay->second));
    }
    if (fail_.count(index) != 0) {
      return Status::Internal("injected I/O failure");
    }
    if (corrupt_.count(index) != 0) {
      return Status::Corruption("injected checksum mismatch");
    }
    return inner_->ReadBucketForPrefetch(index);
  }

  void DelayBucket(BucketIndex index, int ms) { delays_ms_[index] = ms; }
  void FailBucket(BucketIndex index) { fail_.insert(index); }
  void CorruptBucket(BucketIndex index) { corrupt_.insert(index); }

 private:
  std::unique_ptr<MemStore> inner_;
  std::map<BucketIndex, int> delays_ms_;
  std::set<BucketIndex> fail_;
  std::set<BucketIndex> corrupt_;
};

TEST(QueuedAsyncReaderTest, CompletesAllReadsAcrossVolumes) {
  auto store = MakeMemStore(6000, 101);
  const size_t buckets = store->num_buckets();
  StorageTopologyConfig config;
  config.num_volumes = 3;
  auto topology = StorageTopology::Create(buckets, config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  auto reader = store->NewAsyncReader(&*topology);

  std::map<BucketIndex, AsyncReadCompletion> done;
  for (BucketIndex b = 0; b < buckets; ++b) {
    const uint64_t ticket = reader->SubmitRead(
        b, [&done](const AsyncReadCompletion& c) { done[c.index] = c; });
    EXPECT_GT(ticket, 0u);
  }
  reader->Drain();
  EXPECT_EQ(reader->in_flight(), 0u);
  ASSERT_EQ(done.size(), buckets);
  for (BucketIndex b = 0; b < buckets; ++b) {
    const AsyncReadCompletion& c = done[b];
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    ASSERT_NE(c.bucket, nullptr);
    EXPECT_EQ(c.bucket->size(), store->BucketObjectCount(b));
    EXPECT_EQ(c.volume, topology->VolumeOf(b));
    EXPECT_GT(c.bytes, 0u);
    EXPECT_GE(c.latency_ms, 0.0);
  }

  // Per-volume telemetry adds up to the submitted work.
  std::vector<AsyncVolumeStats> stats = reader->VolumeStats();
  ASSERT_EQ(stats.size(), 3u);
  uint64_t total_reads = 0;
  for (uint32_t v = 0; v < 3; ++v) {
    uint64_t expected = 0;
    for (BucketIndex b = 0; b < buckets; ++b) {
      if (topology->VolumeOf(b) == v) ++expected;
    }
    EXPECT_EQ(stats[v].reads, expected) << "volume " << v;
    EXPECT_EQ(stats[v].failures, 0u);
    EXPECT_LE(stats[v].p50_latency_ms, stats[v].p99_latency_ms + 1e-9);
    total_reads += stats[v].reads;
  }
  EXPECT_EQ(total_reads, buckets);
}

TEST(QueuedAsyncReaderTest, CallbacksRunOnTheOwnerThread) {
  auto store = MakeMemStore(3000, 103);
  auto reader = store->NewAsyncReader(nullptr);
  const std::thread::id owner = std::this_thread::get_id();
  size_t delivered = 0;
  for (BucketIndex b = 0; b < store->num_buckets(); ++b) {
    reader->SubmitRead(b, [&](const AsyncReadCompletion&) {
      EXPECT_EQ(std::this_thread::get_id(), owner);
      ++delivered;
    });
  }
  reader->Drain();
  EXPECT_EQ(delivered, store->num_buckets());
}

TEST(QueuedAsyncReaderTest, SlowVolumeReordersCompletionsAcrossArms) {
  // Volume 0's read sleeps; volume 1's does not. Submitting the slow read
  // first must not delay the fast arm: the fast completion arrives first.
  auto inner = MakeMemStore(4000, 107);
  FaultInjectionStore store(std::move(inner));
  StorageTopologyConfig config;
  config.num_volumes = 2;
  config.placement = VolumePlacement::kHash;  // bucket b -> volume b % 2
  auto topology =
      StorageTopology::Create(store.num_buckets(), config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  ASSERT_GE(store.num_buckets(), 2u);
  store.DelayBucket(0, 200);  // volume 0
  auto reader = store.NewAsyncReader(&*topology);

  std::vector<BucketIndex> order;
  reader->SubmitRead(0, [&](const AsyncReadCompletion& c) {
    ASSERT_TRUE(c.status.ok());
    order.push_back(c.index);
  });
  reader->SubmitRead(1, [&](const AsyncReadCompletion& c) {
    ASSERT_TRUE(c.status.ok());
    order.push_back(c.index);
  });
  reader->Drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u) << "fast arm should complete first";
  EXPECT_EQ(order[1], 0u);
}

TEST(QueuedAsyncReaderTest, InjectedFailuresAndCorruptionAreCounted) {
  auto inner = MakeMemStore(5000, 109);
  FaultInjectionStore store(std::move(inner));
  ASSERT_GE(store.num_buckets(), 3u);
  store.FailBucket(0);
  store.CorruptBucket(1);
  auto reader = store.NewAsyncReader(nullptr);

  std::map<BucketIndex, Status> statuses;
  for (BucketIndex b = 0; b < 3; ++b) {
    reader->SubmitRead(b, [&](const AsyncReadCompletion& c) {
      statuses[c.index] = c.status;
      if (!c.status.ok()) {
        EXPECT_EQ(c.bucket, nullptr);
      }
    });
  }
  reader->Drain();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInternal);
  EXPECT_EQ(statuses[1].code(), StatusCode::kCorruption);
  EXPECT_TRUE(statuses[2].ok());

  std::vector<AsyncVolumeStats> stats = reader->VolumeStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].reads, 3u);
  EXPECT_EQ(stats[0].failures, 2u);
  EXPECT_EQ(stats[0].checksum_failures, 1u);
}

TEST(QueuedAsyncReaderTest, ShutdownWithInFlightReadsLeaksNothing) {
  // Destroy the reader while reads are queued and mid-flight, callbacks
  // undelivered. The destructor must join workers and free everything —
  // the ASan job turns any leak or use-after-free here into a failure.
  auto inner = MakeMemStore(6000, 113);
  FaultInjectionStore store(std::move(inner));
  for (BucketIndex b = 0; b < store.num_buckets(); ++b) {
    store.DelayBucket(b, 20);
  }
  StorageTopologyConfig config;
  config.num_volumes = 2;
  auto topology =
      StorageTopology::Create(store.num_buckets(), config, DiskModelParams{});
  ASSERT_TRUE(topology.ok());
  std::atomic<size_t> delivered{0};
  {
    auto reader = store.NewAsyncReader(&*topology);
    for (int round = 0; round < 4; ++round) {
      for (BucketIndex b = 0; b < store.num_buckets(); ++b) {
        reader->SubmitRead(
            b, [&delivered](const AsyncReadCompletion&) { ++delivered; });
      }
    }
    // No Poll/Wait/Drain: everything still queued or in flight dies with
    // the reader.
  }
  EXPECT_EQ(delivered.load(), 0u);
}

TEST(QueuedAsyncReaderTest, CallbackMaySubmitReentrantly) {
  auto store = MakeMemStore(3000, 127);
  ASSERT_GE(store->num_buckets(), 2u);
  auto reader = store->NewAsyncReader(nullptr);
  std::vector<BucketIndex> done;
  reader->SubmitRead(0, [&](const AsyncReadCompletion& c) {
    ASSERT_TRUE(c.status.ok());
    done.push_back(c.index);
    reader->SubmitRead(1, [&](const AsyncReadCompletion& c2) {
      ASSERT_TRUE(c2.status.ok());
      done.push_back(c2.index);
    });
  });
  reader->Drain();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 0u);
  EXPECT_EQ(done[1], 1u);
}

// ------------------------------------------- FileStore checksum path ----

TEST(FileStoreAsyncTest, FlippedPageByteSurfacesAsChecksumFailure) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 5000;
  gen.seed = 131;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  auto partition = PartitionCatalog(std::move(*objects), 1000);
  ASSERT_TRUE(partition.ok());
  const std::string path = TempPath("crc");
  ASSERT_TRUE(FileStore::Create(path, partition->buckets).ok());

  // Flip one byte in the middle of the file — inside some bucket's page
  // payload (pages dominate the file), far from header and footer.
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 4096);
    const std::streamoff target = size / 2;
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(target);
    f.write(&byte, 1);
  }

  auto store = FileStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto reader = (*store)->NewAsyncReader(nullptr);
  size_t corrupt = 0;
  size_t clean = 0;
  for (BucketIndex b = 0; b < (*store)->num_buckets(); ++b) {
    reader->SubmitRead(b, [&](const AsyncReadCompletion& c) {
      if (c.status.ok()) {
        ++clean;
      } else {
        // A clean Status, not a crash: exactly the corruption code.
        EXPECT_EQ(c.status.code(), StatusCode::kCorruption)
            << c.status.ToString();
        ++corrupt;
      }
    });
  }
  reader->Drain();
  EXPECT_EQ(corrupt, 1u) << "one page carries the flipped byte";
  EXPECT_EQ(clean, (*store)->num_buckets() - 1);
  std::vector<AsyncVolumeStats> stats = reader->VolumeStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].checksum_failures, 1u);
  reader.reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace liferaft::storage

// ------------------------------------------- engine real-I/O mode ----

namespace liferaft::sim {
namespace {

class RealIoModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The fixture's archive, written to disk and opened as a catalog.
    path_ = TempPath("catalog");
    workload::CatalogGenConfig gen;
    gen.num_objects = 20'000;
    gen.seed = 137;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    auto partition = storage::PartitionCatalog(std::move(*objects), 1000);
    ASSERT_TRUE(partition.ok());
    Status created = storage::FileStore::Create(path_, partition->buckets);
    ASSERT_TRUE(created.ok()) << created.ToString();
    auto store = storage::FileStore::Open(path_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto catalog = storage::Catalog::FromStore(std::move(*store));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc;
    tc.num_queries = 16;
    tc.max_objects_per_query = 600;
    tc.match_radius_arcsec = 600.0;
    tc.seed = 139;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
    arrivals_.assign(trace_.size(), 0.0);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static std::string TempPath(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("liferaft_realio_" + std::to_string(::getpid()) + "_" + tag))
        .string();
  }

  EngineConfig BaseConfig(size_t num_volumes) {
    EngineConfig config;
    config.enable_prefetch = true;
    config.prefetch_depth = 2;
    config.collect_matches = true;
    config.topology.num_volumes = num_volumes;
    config.topology.placement = storage::VolumePlacement::kHash;
    return config;
  }

  Result<RunMetrics> Drain(const EngineConfig& config,
                           std::map<query::QueryId, uint64_t>* matches) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    SimEngine engine(catalog_.get(),
                     std::make_unique<sched::LifeRaftScheduler>(
                         catalog_->store(), storage::DiskModel{}, sc),
                     config);
    auto metrics = engine.Run(trace_, arrivals_);
    if (metrics.ok() && matches != nullptr) {
      matches->clear();
      for (const QueryOutcome& o : engine.outcomes()) {
        (*matches)[o.id] = o.matches;
      }
    }
    return metrics;
  }

  std::string path_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
  std::vector<TimeMs> arrivals_;
};

// The contract: real mode changes HOW time is measured, never WHAT is
// computed. Join results (per-query match counts) must be identical to
// the modeled oracle's; the telemetry switches to measured queue stats.
TEST_F(RealIoModeTest, RealModeMatchesModeledJoinResults) {
  std::map<query::QueryId, uint64_t> modeled_matches;
  EngineConfig modeled = BaseConfig(2);
  auto modeled_metrics = Drain(modeled, &modeled_matches);
  ASSERT_TRUE(modeled_metrics.ok()) << modeled_metrics.status().ToString();
  EXPECT_FALSE(modeled_metrics->real_io_enabled);

  std::map<query::QueryId, uint64_t> real_matches;
  EngineConfig real = BaseConfig(2);
  real.io_mode = IoMode::kReal;
  auto real_metrics = Drain(real, &real_matches);
  ASSERT_TRUE(real_metrics.ok()) << real_metrics.status().ToString();

  EXPECT_EQ(real_metrics->queries_completed, trace_.size());
  EXPECT_EQ(real_matches, modeled_matches);
  EXPECT_EQ(real_metrics->total_matches, modeled_metrics->total_matches);

  EXPECT_TRUE(real_metrics->real_io_enabled);
  ASSERT_EQ(real_metrics->real_io.size(), 2u);
  uint64_t reads = 0;
  for (const storage::AsyncVolumeStats& v : real_metrics->real_io) {
    reads += v.reads;
    EXPECT_EQ(v.checksum_failures, 0u);
  }
  EXPECT_GT(reads, 0u) << "the drain must have gone through the queues";
  EXPECT_GT(real_metrics->makespan_ms, 0.0);
}

// The cross-mode oracle: on one trace, every measured run returns the
// modeled oracle's per-query match counts — at 1, 2 and 4 volumes, and
// with prefetch off, at depth 3, and spilling.
// Completion order may differ between the modes; results may not.
TEST_F(RealIoModeTest, EveryRealRunMatchesTheModeledOracle) {
  std::map<query::QueryId, uint64_t> oracle;
  auto modeled = Drain(BaseConfig(1), &oracle);
  ASSERT_TRUE(modeled.ok()) << modeled.status().ToString();
  ASSERT_EQ(oracle.size(), trace_.size());

  auto expect_oracle = [&](EngineConfig config, const std::string& label) {
    SCOPED_TRACE(label);
    config.io_mode = IoMode::kReal;
    std::map<query::QueryId, uint64_t> matches;
    auto metrics = Drain(config, &matches);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (!metrics.ok()) return RunMetrics{};
    EXPECT_TRUE(metrics->real_io_enabled);
    EXPECT_EQ(matches, oracle);
    return *metrics;
  };

  for (size_t volumes : {size_t{1}, size_t{2}, size_t{4}}) {
    expect_oracle(BaseConfig(volumes), "volumes=" + std::to_string(volumes));
  }

  EngineConfig off = BaseConfig(2);
  off.enable_prefetch = false;
  RunMetrics m = expect_oracle(off, "prefetch off");
  for (const storage::VolumeIoStats& v : m.volumes) {
    EXPECT_EQ(v.prefetch_issued, 0u);
  }

  EngineConfig deep = BaseConfig(2);
  deep.prefetch_depth = 3;
  expect_oracle(deep, "depth 3");

  EngineConfig spill = BaseConfig(2);
  spill.spill_path = TempPath("spill");
  spill.workload_memory_budget = 2000;  // well below the trace's queues
  m = expect_oracle(spill, "spill");
  EXPECT_GT(m.spill.segments_restored, 0u) << "budget never triggered";
  std::remove(spill.spill_path.c_str());
}

TEST_F(RealIoModeTest, ModeledJsonCarriesNoRealIoSection) {
  std::map<query::QueryId, uint64_t> matches;
  auto modeled = Drain(BaseConfig(1), &matches);
  ASSERT_TRUE(modeled.ok());
  EXPECT_EQ(RunMetricsJson(*modeled).find("real_io"), std::string::npos);

  EngineConfig real = BaseConfig(1);
  real.io_mode = IoMode::kReal;
  auto measured = Drain(real, &matches);
  ASSERT_TRUE(measured.ok());
  EXPECT_NE(RunMetricsJson(*measured).find("real_io"), std::string::npos);
}

TEST_F(RealIoModeTest, RealModeRejectsPerQueryExecution) {
  EngineConfig config;
  config.mode = ExecutionMode::kNoShare;
  config.io_mode = IoMode::kReal;
  SimEngine engine(catalog_.get(), nullptr, config);
  auto metrics = engine.Run(trace_, arrivals_);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RealIoModeTest, ServeRejectsRealMode) {
  EngineConfig config = BaseConfig(1);
  config.io_mode = IoMode::kReal;
  sched::LifeRaftConfig sc;
  SimEngine engine(catalog_.get(),
                   std::make_unique<sched::LifeRaftScheduler>(
                       catalog_->store(), storage::DiskModel{}, sc),
                   config);
  // Rejected before arrivals are even built, so the default spec is fine.
  ServeConfig serve;
  auto metrics = engine.Serve(trace_, serve);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RealIoModeTest, DepthThreeRealModeCompletesWithFaultFreeQueues) {
  // Three bets per arm over real queues: everything drains.
  EngineConfig config = BaseConfig(2);
  config.prefetch_depth = 3;
  config.io_mode = IoMode::kReal;
  std::map<query::QueryId, uint64_t> matches;
  auto metrics = Drain(config, &matches);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->queries_completed, trace_.size());
  // Every page the drain read entered the cache as a miss — a claimed bet
  // or a foreground read — and every bet was claimed.
  const storage::VolumeIoStats arms = storage::SumOverArms(metrics->volumes);
  EXPECT_GT(arms.prefetch_issued, 0u);
  EXPECT_EQ(metrics->cache.misses,
            arms.foreground_reads + arms.prefetch_claims);
  for (const storage::VolumeIoStats& v : metrics->volumes) {
    EXPECT_EQ(v.prefetch_issued, v.prefetch_claims);
  }

  std::map<query::QueryId, uint64_t> modeled_matches;
  EngineConfig modeled = config;
  modeled.io_mode = IoMode::kModeled;
  auto modeled_metrics = Drain(modeled, &modeled_matches);
  ASSERT_TRUE(modeled_metrics.ok());
  EXPECT_EQ(matches, modeled_matches);
}

// A reader that accepts reads but never completes one properly: it either
// never delivers and reports nothing in flight, or delivers an OK
// completion without a bucket.
class BrokenReader : public storage::AsyncReader {
 public:
  explicit BrokenReader(bool deliver_empty) : deliver_empty_(deliver_empty) {}

  uint64_t SubmitRead(storage::BucketIndex index,
                      storage::AsyncReadCallback done) override {
    pending_.push_back(Pending{++tickets_, index, std::move(done)});
    return tickets_;
  }
  size_t Poll() override {
    if (!deliver_empty_) return 0;
    std::vector<Pending> ready = std::move(pending_);
    pending_.clear();
    for (Pending& p : ready) {
      storage::AsyncReadCompletion c;  // OK status, null bucket
      c.ticket = p.ticket;
      c.index = p.index;
      p.done(c);
    }
    return ready.size();
  }
  size_t Wait() override { return Poll(); }
  void Drain() override { Poll(); }
  size_t in_flight() const override {
    return deliver_empty_ ? pending_.size() : 0;
  }
  std::vector<storage::AsyncVolumeStats> VolumeStats() const override {
    return {};
  }

 private:
  struct Pending {
    uint64_t ticket;
    storage::BucketIndex index;
    storage::AsyncReadCallback done;
  };
  const bool deliver_empty_;
  uint64_t tickets_ = 0;
  std::vector<Pending> pending_;
};

class BrokenReaderStore : public storage::MemStore {
 public:
  BrokenReaderStore(storage::PartitionResult partition, bool deliver_empty)
      : MemStore(std::move(partition)), deliver_empty_(deliver_empty) {}
  std::unique_ptr<storage::AsyncReader> NewAsyncReader(
      const storage::StorageTopology* /*topology*/) override {
    return std::make_unique<BrokenReader>(deliver_empty_);
  }

 private:
  const bool deliver_empty_;
};

// A read that never delivered a bucket fails the run with an Internal
// error naming the bucket; the cache is never handed a null bucket.
TEST(RealIoFailureTest, ReadWithoutABucketFailsTheRunNamingTheBucket) {
  workload::TraceConfig tc;
  tc.num_queries = 6;
  tc.max_objects_per_query = 200;
  tc.seed = 139;
  auto trace = workload::GenerateTrace(tc);
  ASSERT_TRUE(trace.ok());
  const std::vector<TimeMs> arrivals(trace->size(), 0.0);
  for (bool deliver_empty : {false, true}) {
    SCOPED_TRACE(deliver_empty ? "OK completion without a bucket"
                               : "never delivered");
    workload::CatalogGenConfig gen;
    gen.num_objects = 6000;
    gen.seed = 101;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    auto partition = storage::PartitionCatalog(std::move(*objects), 1000);
    ASSERT_TRUE(partition.ok());
    auto catalog = storage::Catalog::FromStore(
        std::make_unique<BrokenReaderStore>(std::move(*partition),
                                            deliver_empty));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

    EngineConfig config;
    config.io_mode = IoMode::kReal;
    config.enable_prefetch = true;
    config.prefetch_depth = 2;
    SimEngine engine(catalog->get(),
                     std::make_unique<sched::LifeRaftScheduler>(
                         (*catalog)->store(), storage::DiskModel{},
                         sched::LifeRaftConfig{}),
                     config);
    auto run = engine.Run(*trace, arrivals);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInternal);
    EXPECT_NE(run.status().message().find("read of bucket "),
              std::string::npos)
        << run.status().ToString();
  }
}

}  // namespace
}  // namespace liferaft::sim
