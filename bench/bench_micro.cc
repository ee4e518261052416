// Microbenchmarks (google-benchmark) for the hot substrate operations:
// HTM point location and cone covers, B+tree range scans, the merge and
// zones cross-match kernels, and the LRU cache. These are the real-CPU
// costs under the simulator's virtual-time experiments; regressions here
// inflate wall-clock for every figure bench.

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "htm/cover.h"
#include "htm/htm.h"
#include "join/evaluator.h"
#include "join/merge_join.h"
#include "join/zones.h"
#include "query/query.h"
#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "storage/btree.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "storage/columnar.h"
#include "storage/file_store.h"
#include "storage/mem_store.h"
#include "storage/partitioner.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft {
namespace {

void BM_HtmPointToId(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<Vec3> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back(
        Vec3{rng.Normal(), rng.Normal(), rng.Normal()}.Normalized());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::PointToId(points[i++ & 1023], level));
  }
}
BENCHMARK(BM_HtmPointToId)->Arg(6)->Arg(14)->Arg(20);

void BM_HtmCoverCircle(benchmark::State& state) {
  const double radius_arcsec = static_cast<double>(state.range(0));
  Rng rng(13);
  std::vector<SkyPoint> centers;
  for (int i = 0; i < 256; ++i) {
    centers.push_back(workload::RandomSkyPoint(&rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::CoverCircle(
        centers[i++ & 255], radius_arcsec / kArcsecPerDeg, 14, 8));
  }
}
BENCHMARK(BM_HtmCoverCircle)->Arg(3)->Arg(60)->Arg(3600);

std::vector<storage::CatalogObject> BenchObjects(size_t n) {
  workload::CatalogGenConfig gen;
  gen.num_objects = n;
  gen.seed = 29;
  auto objects = workload::GenerateCatalog(gen);
  std::sort(objects->begin(), objects->end(), storage::ObjectHtmLess);
  return std::move(*objects);
}

void BM_BTreeRangeScan(benchmark::State& state) {
  auto objects = BenchObjects(100'000);
  auto tree = storage::BTreeIndex::BulkLoad(objects);
  Rng rng(31);
  const uint64_t span = (htm::LevelMax(14) - htm::LevelMin(14)) / 1000;
  for (auto _ : state) {
    htm::HtmId lo = htm::LevelMin(14) +
                    rng.UniformU64(htm::LevelMax(14) - htm::LevelMin(14) -
                                   span);
    uint64_t n = 0;
    tree->RangeScan(lo, lo + span,
                    [&](const storage::CatalogObject&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_BTreeRangeScan);

struct JoinFixture {
  storage::Bucket bucket;
  std::vector<query::WorkloadEntry> batch;

  static JoinFixture Make(size_t bucket_objects, size_t queue_objects,
                          double radius_arcsec = 10.0) {
    Rng rng(37);
    SkyPoint center{120.0, 10.0};
    std::vector<storage::CatalogObject> objects;
    for (size_t i = 0; i < bucket_objects; ++i) {
      objects.push_back(storage::MakeObject(
          i, workload::RandomPointInCap(&rng, center, 3.0)));
    }
    std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
    query::WorkloadEntry entry;
    entry.query_id = 1;
    for (size_t i = 0; i < queue_objects; ++i) {
      entry.objects.push_back(query::MakeQueryObject(
          i, workload::RandomPointInCap(&rng, center, 3.0), radius_arcsec));
    }
    return JoinFixture{
        storage::Bucket(0,
                        htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                                     htm::LevelMax(htm::kObjectLevel)},
                        std::move(objects)),
        {std::move(entry)}};
  }
};

void BM_MergeCrossMatch(benchmark::State& state) {
  auto fixture = JoinFixture::Make(10'000,
                                   static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto counters = join::MergeCrossMatch(fixture.bucket, fixture.batch,
                                          nullptr);
    benchmark::DoNotOptimize(counters);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergeCrossMatch)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ZonesCrossMatch(benchmark::State& state) {
  auto fixture = JoinFixture::Make(10'000,
                                   static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto counters = join::ZonesCrossMatch(fixture.bucket, fixture.batch,
                                          10.0 / kArcsecPerDeg, nullptr);
    benchmark::DoNotOptimize(counters);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZonesCrossMatch)->Arg(100)->Arg(1000);

void BM_BucketCacheGet(benchmark::State& state) {
  auto partition = storage::PartitionCatalog(BenchObjects(50'000), 1000);
  storage::MemStore store(std::move(*partition));
  storage::BucketCache cache(&store, 20);
  Rng rng(41);
  ZipfDistribution zipf(store.num_buckets(), 1.1);
  for (auto _ : state) {
    auto b = cache.Get(static_cast<storage::BucketIndex>(zipf.Sample(&rng)));
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BucketCacheGet);

/// Concurrent Get throughput against the sharded cache: four workers each
/// stream Zipf-skewed buckets through one shared cache at shard count
/// `arg`. At 1 shard every Get serializes on a single mutex; higher shard
/// counts split the lock (and the LRU) so wall time per iteration is the
/// contention signal. MemStore reads are thread-safe, so this measures the
/// cache layer alone.
void BM_BucketCacheShardedGet(benchmark::State& state) {
  constexpr size_t kWorkers = 4;
  constexpr size_t kGetsPerWorker = 2048;
  auto partition = storage::PartitionCatalog(BenchObjects(50'000), 1000);
  storage::MemStore store(std::move(*partition));
  storage::BucketCache cache(&store, 20,
                             static_cast<size_t>(state.range(0)));
  util::ThreadPool pool(kWorkers);
  for (auto _ : state) {
    std::vector<std::future<uint64_t>> futures;
    futures.reserve(kWorkers);
    for (size_t t = 0; t < kWorkers; ++t) {
      futures.push_back(pool.Submit([&cache, &store, t] {
        Rng rng(41 + static_cast<uint64_t>(t));
        ZipfDistribution zipf(store.num_buckets(), 1.1);
        uint64_t objects = 0;
        for (size_t i = 0; i < kGetsPerWorker; ++i) {
          auto b = cache.Get(
              static_cast<storage::BucketIndex>(zipf.Sample(&rng)));
          if (b.ok()) objects += (*b)->size();
        }
        return objects;
      }));
    }
    uint64_t total = 0;
    for (auto& f : futures) total += f.get();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWorkers * kGetsPerWorker));
}
// Real time: the work runs on the pool, so the main thread's CPU time
// (which items_per_second would otherwise divide by) is near zero.
BENCHMARK(BM_BucketCacheShardedGet)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// ------------------------------------------------- Engine-level benches --
// Wall-clock cost of whole simulated runs. Virtual quantities (the
// makespan the paper's figures report) are attached as counters so the
// BENCH_<tag>.json anchors also track the modeled effect of pipelining.

struct EngineFixture {
  std::unique_ptr<storage::Catalog> catalog;
  std::vector<query::CrossMatchQuery> trace;
  std::vector<TimeMs> arrivals;  // saturated drain: everything at t=0

  static EngineFixture Make(size_t num_objects, size_t num_queries) {
    workload::CatalogGenConfig gen;
    gen.num_objects = num_objects;
    gen.seed = 43;
    auto objects = workload::GenerateCatalog(gen);
    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;
    auto catalog = storage::Catalog::Build(std::move(*objects), options);
    workload::TraceConfig tc;
    tc.num_queries = num_queries;
    tc.max_objects_per_query = 800;
    tc.match_radius_arcsec = 600.0;
    tc.seed = 47;
    auto trace = workload::GenerateTrace(tc);
    return EngineFixture{std::move(*catalog), std::move(*trace),
                         std::vector<TimeMs>(num_queries, 0.0)};
  }
};

/// Shared-mode drain with the cross-batch prefetch pipeline off (arg 0) or
/// on at prediction depth arg; virtual_makespan_ms is the paper-visible
/// effect and prefetch_hidden_ms the fetch latency hidden behind compute.
void BM_EngineSharedPrefetch(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.enable_prefetch = state.range(0) != 0;
  config.prefetch_depth =
      state.range(0) > 0 ? static_cast<size_t>(state.range(0)) : 1;
  double makespan = 0.0;
  double hidden = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(fx.catalog.get(),
                          std::make_unique<sched::LifeRaftScheduler>(
                              fx.catalog->store(), storage::DiskModel{}, sc),
                          config);
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    makespan = metrics->makespan_ms;
    hidden = metrics->prefetch_hidden_ms;
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["virtual_makespan_ms"] = makespan;
  state.counters["prefetch_hidden_ms"] = hidden;
}
BENCHMARK(BM_EngineSharedPrefetch)->Arg(0)->Arg(1)->Arg(2);

/// Shared-mode drain under the adaptive prefetch controller (starting
/// depth 2, ceiling = arg). virtual_makespan_ms / prefetch_hidden_ms are
/// the paper-visible effects; final_depth shows where the feedback loop
/// settled and prefetch_wasted_kb what mispredicts cost. The acceptance
/// bar: hidden must be >= the fixed depth-2 number on this fixture.
void BM_EngineSharedAdaptivePrefetch(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.adaptive_prefetch = true;
  config.prefetch_depth = 2;
  config.max_prefetch_depth = static_cast<size_t>(state.range(0));
  double makespan = 0.0;
  double hidden = 0.0;
  double final_depth = 0.0;
  double wasted_kb = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(fx.catalog.get(),
                          std::make_unique<sched::LifeRaftScheduler>(
                              fx.catalog->store(), storage::DiskModel{}, sc),
                          config);
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    makespan = metrics->makespan_ms;
    hidden = metrics->prefetch_hidden_ms;
    final_depth = static_cast<double>(metrics->prefetch_final_depth);
    wasted_kb =
        static_cast<double>(metrics->cache.prefetch_wasted_bytes) / 1024.0;
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["virtual_makespan_ms"] = makespan;
  state.counters["prefetch_hidden_ms"] = hidden;
  state.counters["final_depth"] = final_depth;
  state.counters["prefetch_wasted_kb"] = wasted_kb;
}
BENCHMARK(BM_EngineSharedAdaptivePrefetch)->Arg(2)->Arg(4);

/// Shared-mode drain with depth-2 prefetch over a multi-volume topology
/// (range placement; arg = num_volumes, 1 reproduces
/// BM_EngineSharedPrefetch/2 byte for byte). Each volume is an
/// independent disk arm with its own prefetch queue: fetches on different
/// arms overlap each other and the foreground disk phase on the virtual
/// clocks, so virtual_makespan_ms shrinks as arms are added while the
/// per-arm accounting stays deterministic. volume_busy_ms is the summed
/// modeled disk-busy time across arms (the bandwidth actually used).
void BM_EngineMultiVolumeDrain(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  config.topology.num_volumes = static_cast<size_t>(state.range(0));
  config.topology.placement = storage::VolumePlacement::kRange;
  double makespan = 0.0;
  double hidden = 0.0;
  double busy = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(fx.catalog.get(),
                          std::make_unique<sched::LifeRaftScheduler>(
                              fx.catalog->store(), storage::DiskModel{}, sc),
                          config);
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    makespan = metrics->makespan_ms;
    hidden = metrics->prefetch_hidden_ms;
    busy = 0.0;
    for (const auto& v : metrics->volumes) busy += v.busy_ms;
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["virtual_makespan_ms"] = makespan;
  state.counters["prefetch_hidden_ms"] = hidden;
  state.counters["volume_busy_ms"] = busy;
}
BENCHMARK(BM_EngineMultiVolumeDrain)->Arg(1)->Arg(2)->Arg(4);

/// Cost of one dense shared batch's parallel join with match
/// materialization, per-worker arenas off (/0) vs on (/1): the arena path
/// replaces contended heap growth/free cycles in the fan-out with private
/// pointer bumps. Measured in process CPU time so the win is visible even
/// on a single-core host, where four workers time-slice one core and wall
/// time is all scheduler noise.
void BM_ParallelJoinArenas(benchmark::State& state) {
  constexpr size_t kBucketObjects = 10'000;
  constexpr size_t kEntries = 16;
  constexpr size_t kObjectsPerEntry = 500;
  Rng rng(53);
  SkyPoint center{120.0, 10.0};
  std::vector<storage::CatalogObject> objects;
  objects.reserve(kBucketObjects);
  for (size_t i = 0; i < kBucketObjects; ++i) {
    objects.push_back(storage::MakeObject(
        i, workload::RandomPointInCap(&rng, center, 3.0)));
  }
  std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
  auto partition =
      storage::PartitionCatalog(std::move(objects), kBucketObjects);
  storage::MemStore store(std::move(*partition));  // one all-sky bucket
  std::vector<query::WorkloadEntry> batch;
  for (size_t e = 0; e < kEntries; ++e) {
    query::WorkloadEntry entry;
    entry.query_id = e + 1;
    for (size_t i = 0; i < kObjectsPerEntry; ++i) {
      entry.objects.push_back(query::MakeQueryObject(
          i, workload::RandomPointInCap(&rng, center, 3.0), 300.0));
    }
    batch.push_back(std::move(entry));
  }

  storage::BucketCache cache(&store, 2);
  join::JoinEvaluator evaluator(&cache, /*index=*/nullptr,
                                storage::DiskModel{}, join::HybridConfig{});
  util::ThreadPool pool(4);
  evaluator.set_thread_pool(&pool);
  evaluator.set_use_match_arenas(state.range(0) != 0);
  uint64_t matches = 0;
  for (auto _ : state) {
    auto result = evaluator.EvaluateBucket(0, batch,
                                           /*collect_matches=*/true);
    if (result.ok()) matches = result->counters.output_matches;
    benchmark::DoNotOptimize(result);
  }
  state.counters["matches_per_batch"] = static_cast<double>(matches);
}
BENCHMARK(BM_ParallelJoinArenas)->Arg(0)->Arg(1)->MeasureProcessCPUTime();

/// Continuous serving at an offered Poisson rate of arg/10 QPS with a
/// bounded admission queue. The figure of merit is sustainable QPS at a
/// tail-latency target (see docs/BENCHMARKS.md): sweep the offered rate
/// and take the highest whose p99_interactive_ms stays under target.
/// Counters: sustained_qps (completed work rate), p99 per QoS class, and
/// shed (arrivals rejected by admission control). All virtual-clock
/// quantities — deterministic at a fixed seed; wall time measures the
/// serving loop's real overhead.
void BM_EngineServe(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  sim::ServeConfig serve;
  serve.arrivals.kind = sim::ArrivalSpec::Kind::kPoisson;
  serve.arrivals.rate_qps = static_cast<double>(state.range(0)) / 10.0;
  serve.arrivals.seed = 59;
  serve.max_pending_queries = 16;
  double sustained = 0.0;
  double p99_interactive = 0.0;
  double p99_batch = 0.0;
  double shed = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(fx.catalog.get(),
                          std::make_unique<sched::LifeRaftScheduler>(
                              fx.catalog->store(), storage::DiskModel{}, sc),
                          config);
    auto metrics = engine.Serve(fx.trace, serve);
    sustained = metrics->sustained_qps;
    p99_interactive = metrics->qos_classes[0].p99_response_ms;
    p99_batch = metrics->qos_classes[1].p99_response_ms;
    shed = static_cast<double>(metrics->queries_shed);
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["sustained_qps"] = sustained;
  state.counters["p99_interactive_ms"] = p99_interactive;
  state.counters["p99_batch_ms"] = p99_batch;
  state.counters["shed"] = shed;
}
BENCHMARK(BM_EngineServe)->Arg(2)->Arg(5)->Arg(20);

/// NoShare drain at 1 vs 4 worker threads: per-query fan-out wall-clock
/// speedup (virtual results are byte-identical by construction).
void BM_EngineNoShareThreads(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kNoShare;
  config.num_threads = static_cast<size_t>(state.range(0));
  sim::SimEngine engine(fx.catalog.get(), nullptr, config);
  for (auto _ : state) {
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_EngineNoShareThreads)->Arg(1)->Arg(4);

/// A row bucket's columnar twin via a real encode/parse round trip.
std::shared_ptr<const storage::ColumnarPage> ColumnarPageOf(
    const storage::Bucket& bucket) {
  std::string encoded;
  storage::EncodeColumnarPage(bucket, &encoded);
  std::unique_ptr<char[]> buf(new char[encoded.size()]);
  std::memcpy(buf.get(), encoded.data(), encoded.size());
  return *storage::ColumnarPage::Parse(std::move(buf), encoded.size());
}

/// Zero-copy columnar scan (arg 0) vs decode-to-rows-then-scan (arg 1)
/// over the same parsed v2 page: the price the row path pays to
/// materialize 10k CatalogObjects per bucket touch, which the span-based
/// kernel skips entirely. Results are identical by construction (the
/// identity tests pin that); this bench tracks the CPU delta.
void BM_ColumnarScanVsDecode(benchmark::State& state) {
  auto fixture = JoinFixture::Make(10'000, 1000);
  const auto page = ColumnarPageOf(fixture.bucket);
  const bool decode_rows = state.range(0) != 0;
  storage::Bucket columnar(0, page);
  for (auto _ : state) {
    if (decode_rows) {
      std::vector<storage::CatalogObject> rows;
      rows.reserve(page->size());
      for (size_t i = 0; i < page->size(); ++i) {
        rows.push_back(page->MaterializeObject(i));
      }
      storage::Bucket row_bucket(0, fixture.bucket.range(), std::move(rows));
      auto counters =
          join::MergeCrossMatch(row_bucket, fixture.batch, nullptr);
      benchmark::DoNotOptimize(counters);
    } else {
      auto counters =
          join::MergeCrossMatch(columnar, fixture.batch, nullptr);
      benchmark::DoNotOptimize(counters);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ColumnarScanVsDecode)->Arg(0)->Arg(1);

/// The join kernel's per-candidate cost at a wide radius: 1000 query
/// objects with a 300-arcsec radius merge-joined against one parsed
/// 10k-object columnar page. Most HTM-window candidates lie outside the
/// radius, which is where join::RadiusTest's dot-product stage pays.
/// candidates_per_second is JoinCounters::candidates_tested per wall
/// second.
void BM_CrossMatchWideRadius(benchmark::State& state) {
  auto fixture = JoinFixture::Make(10'000, 1000, 300.0);
  storage::Bucket columnar(0, ColumnarPageOf(fixture.bucket));
  uint64_t candidates = 0;
  for (auto _ : state) {
    auto counters = join::MergeCrossMatch(columnar, fixture.batch, nullptr);
    candidates += counters.candidates_tested;
    benchmark::DoNotOptimize(counters);
  }
  state.counters["candidates_per_second"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CrossMatchWideRadius)->UseRealTime();

/// End-to-end saturated drain at a FIXED cache byte budget over the same
/// partition written as row v1 (arg 0) and columnar v2 (arg 1), with
/// charge_encoded_bytes on so T_b prices real page bytes. The compressed
/// format wins twice: smaller pages transfer faster AND more buckets fit
/// the budget (higher hit rate). encoded_bytes_ratio = this format's
/// total page bytes / the v1 total, the compression the gate holds at
/// <= anchor.
void BM_EngineFixedCacheBudgetDrain(benchmark::State& state) {
  // One-time fixture: the EngineFixture's partition persisted to both
  // formats (leaked intentionally — benchmark process-lifetime statics).
  struct FormatFiles {
    std::string v1_path;
    std::string v2_path;
    std::vector<query::CrossMatchQuery> trace;
    std::vector<TimeMs> arrivals;
  };
  static const FormatFiles& files = *[] {
    auto* f = new FormatFiles;
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("liferaft_bench_fmt_" + std::to_string(::getpid())))
            .string();
    f->v1_path = base + ".v1.lfr";
    f->v2_path = base + ".v2.lfr";
    workload::CatalogGenConfig gen;
    gen.num_objects = 30'000;
    gen.seed = 43;
    auto objects = workload::GenerateCatalog(gen);
    auto partition = storage::PartitionCatalog(std::move(*objects), 1000);
    storage::FileStore::Create(f->v1_path, partition->buckets,
                               storage::BucketFormat::kRowV1)
        .ok();
    storage::FileStore::Create(f->v2_path, partition->buckets,
                               storage::BucketFormat::kColumnarV2)
        .ok();
    workload::TraceConfig tc;
    tc.num_queries = 24;
    tc.max_objects_per_query = 800;
    tc.match_radius_arcsec = 600.0;
    tc.seed = 47;
    f->trace = std::move(*workload::GenerateTrace(tc));
    f->arrivals.assign(tc.num_queries, 0.0);
    return f;
  }();
  const std::string& path = state.range(0) == 0 ? files.v1_path
                                                : files.v2_path;
  auto store = storage::FileStore::Open(path);
  auto catalog = storage::Catalog::FromStore(std::move(*store));

  uint64_t encoded_total = 0;
  uint64_t v1_total = 0;
  {
    auto v1_store = storage::FileStore::Open(files.v1_path);
    const storage::BucketStore* s = (*catalog)->store();
    for (size_t i = 0; i < s->num_buckets(); ++i) {
      encoded_total += s->EncodedBucketBytes(i);
      v1_total += (*v1_store)->EncodedBucketBytes(i);
    }
  }

  sim::EngineConfig config;
  config.cache_capacity = 64;
  // Fixed 1 MB budget, chosen between the two formats' totals (~1.2 MB of
  // v1 pages vs ~0.8 MB of v2 pages for this 30-bucket partition): the
  // columnar file fits entirely, the row file must evict.
  config.cache_capacity_bytes = 1ull << 20;
  config.charge_encoded_bytes = true;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  double makespan = 0.0;
  double hit_rate = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(
        (*catalog).get(),
        std::make_unique<sched::LifeRaftScheduler>(
            (*catalog)->store(), storage::DiskModel{}, sc),
        config);
    auto metrics = engine.Run(files.trace, files.arrivals);
    makespan = metrics->makespan_ms;
    hit_rate = metrics->cache.HitRate();
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["virtual_makespan_ms"] = makespan;
  state.counters["cache_hit_rate"] = hit_rate;
  state.counters["encoded_bytes_ratio"] =
      static_cast<double>(encoded_total) / static_cast<double>(v1_total);
}
BENCHMARK(BM_EngineFixedCacheBudgetDrain)->Arg(0)->Arg(1);

/// Real-I/O drain: the shared prefetch drain executed in wall-clock mode
/// (EngineConfig::io_mode = kReal) against an on-disk FileStore. Args are
/// (volumes, format 0=row-v1 / 1=columnar-v2). Prefetch bets and
/// foreground misses are actual pread(2)s through the per-volume
/// submission queues — O_DIRECT when the filesystem allows it, buffered
/// otherwise (the direct_io counter records which) — so real_time here IS
/// the measured drain, and the multi-volume speedup is physical overlap
/// of device-blocked reads, not virtual arithmetic. Catalog size comes
/// from LIFERAFT_BENCH_REAL_IO_OBJECTS (default 500k objects, ~20 MB of
/// v1 pages, CI-friendly); committed anchors record a >= 1 GB run (see
/// docs/BENCHMARKS.md). Wall numbers are machine- and cache-state-
/// dependent by design: the bench is skip-listed from the regression
/// gate and exists to document the measured speedup, with the modeled
/// benches above still carrying the gated counters.
void BM_RealIoDrain(benchmark::State& state) {
  struct RealIoFiles {
    std::string v1_path;
    std::string v2_path;
    uint64_t v1_bytes = 0;
    std::vector<query::CrossMatchQuery> trace;
    std::vector<TimeMs> arrivals;
  };
  static const RealIoFiles& files = *[] {
    auto* f = new RealIoFiles;
    size_t num_objects = 2'000'000;
    if (const char* env = std::getenv("LIFERAFT_BENCH_REAL_IO_OBJECTS")) {
      num_objects = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    }
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("liferaft_bench_realio_" + std::to_string(::getpid())))
            .string();
    f->v1_path = base + ".v1.lfr";
    f->v2_path = base + ".v2.lfr";
    workload::CatalogGenConfig gen;
    gen.num_objects = num_objects;
    gen.seed = 43;
    auto objects = workload::GenerateCatalog(gen);
    // 50k objects per bucket => ~2 MB row-v1 pages: each prefetch bet is
    // a millisecond-scale pread, so the drain is device-bound and the
    // volume axis measures real overlap. (Small pages on a fast NVMe-
    // backed disk make the drain CPU-bound and the volume axis noise.)
    auto partition = storage::PartitionCatalog(std::move(*objects), 50'000);
    storage::FileStore::Create(f->v1_path, partition->buckets,
                               storage::BucketFormat::kRowV1)
        .ok();
    storage::FileStore::Create(f->v2_path, partition->buckets,
                               storage::BucketFormat::kColumnarV2)
        .ok();
    f->v1_bytes = std::filesystem::file_size(f->v1_path);
    // Evict the just-written pages so the measured drain reads the device,
    // not the page cache — this is what makes the buffered-fallback mode
    // honest too (O_DIRECT bypasses the cache either way).
    for (const std::string* p : {&f->v1_path, &f->v2_path}) {
      int fd = ::open(p->c_str(), O_RDONLY);
      if (fd >= 0) {
#ifdef POSIX_FADV_DONTNEED
        (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
        ::close(fd);
      }
    }
    // Sky-spanning cones with low object density: queries touch many
    // bucket pages but carry little join work, so the drain is
    // I/O-dominated rather than compute-dominated.
    workload::TraceConfig tc;
    tc.num_queries = 24;
    tc.min_radius_deg = 5.0;
    tc.max_radius_deg = 60.0;
    tc.objects_per_sq_deg = 0.05;
    tc.max_objects_per_query = 150;
    tc.match_radius_arcsec = 600.0;
    tc.seed = 47;
    f->trace = std::move(*workload::GenerateTrace(tc));
    f->arrivals.assign(tc.num_queries, 0.0);
    return f;
  }();

  const bool columnar = state.range(1) != 0;
  storage::FileStoreOptions options;
  options.use_direct_io = true;
  options.advise_random = true;
  auto store = storage::FileStore::Open(
      columnar ? files.v2_path : files.v1_path, options);
  const bool direct = (*store)->direct_io_active();
  auto catalog = storage::Catalog::FromStore(std::move(*store));

  sim::EngineConfig config;
  config.io_mode = sim::IoMode::kReal;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  if (const char* env = std::getenv("LIFERAFT_BENCH_REAL_IO_DEPTH")) {
    config.prefetch_depth = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  config.cache_capacity = 64;
  config.topology.num_volumes = static_cast<size_t>(state.range(0));
  config.topology.placement = storage::VolumePlacement::kHash;
  double makespan = 0.0;
  double read_mb = 0.0;
  double p99 = 0.0;
  for (auto _ : state) {
    sched::LifeRaftConfig sc;
    sc.alpha = 0.25;
    sim::SimEngine engine(
        (*catalog).get(),
        std::make_unique<sched::LifeRaftScheduler>(
            (*catalog)->store(), storage::DiskModel{}, sc),
        config);
    auto metrics = engine.Run(files.trace, files.arrivals);
    makespan = metrics->makespan_ms;
    read_mb = 0.0;
    p99 = 0.0;
    for (const auto& v : metrics->real_io) {
      read_mb += static_cast<double>(v.bytes) / (1024.0 * 1024.0);
      p99 = std::max(p99, v.p99_latency_ms);
    }
    benchmark::DoNotOptimize(metrics);
  }
  state.counters["wall_makespan_ms"] = makespan;
  state.counters["io_read_mb"] = read_mb;
  state.counters["io_p99_ms"] = p99;
  state.counters["direct_io"] = direct ? 1.0 : 0.0;
  state.counters["catalog_mb"] =
      static_cast<double>(files.v1_bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_RealIoDrain)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// IndexOnly drain at 1 vs 4 worker threads.
void BM_EngineIndexOnlyThreads(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kIndexOnly;
  config.num_threads = static_cast<size_t>(state.range(0));
  sim::SimEngine engine(fx.catalog.get(), nullptr, config);
  for (auto _ : state) {
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_EngineIndexOnlyThreads)->Arg(1)->Arg(4);

}  // namespace
}  // namespace liferaft

BENCHMARK_MAIN();
