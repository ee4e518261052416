// Microbenchmarks (google-benchmark) for the hot substrate operations:
// HTM point location and cone covers, B+tree range scans, the merge
// cross-match kernel, the page checksum and parse, the pre-processor's
// query split, and the LRU cache. These are the real-CPU costs under the
// simulator's virtual-time experiments; regressions here inflate
// wall-clock for every figure bench.

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>

#include "htm/cover.h"
#include "htm/htm.h"
#include "join/evaluator.h"
#include "join/merge_join.h"
#include "query/preprocessor.h"
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
#include "util/crc32.h"
#include "util/random.h"
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
// 3, 10 and 300 arcsec are the match radii of bench_e2e's spill-drain,
// cold-drain and hot-join.
BENCHMARK(BM_HtmCoverCircle)
    ->Arg(3)
    ->Arg(10)
    ->Arg(60)
    ->Arg(300)
    ->Arg(3600);

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

  /// Bucket and queue objects are uniform in a cap of `cap_deg` around one
  /// centre.
  static JoinFixture Make(size_t bucket_objects, size_t queue_objects,
                          double radius_arcsec = 10.0, double cap_deg = 3.0) {
    Rng rng(37);
    SkyPoint center{120.0, 10.0};
    std::vector<storage::CatalogObject> objects;
    for (size_t i = 0; i < bucket_objects; ++i) {
      objects.push_back(storage::MakeObject(
          i, workload::RandomPointInCap(&rng, center, cap_deg)));
    }
    std::sort(objects.begin(), objects.end(), storage::ObjectHtmLess);
    query::WorkloadEntry entry;
    entry.query_id = 1;
    for (size_t i = 0; i < queue_objects; ++i) {
      entry.objects.push_back(query::MakeQueryObject(
          i, workload::RandomPointInCap(&rng, center, cap_deg),
          radius_arcsec));
    }
    auto page = storage::ColumnarPage::Encode(
        htm::IdRange{htm::LevelMin(htm::kObjectLevel),
                     htm::LevelMax(htm::kObjectLevel)},
        objects);
    return JoinFixture{storage::Bucket(0, std::move(*page)),
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

/// The page checksum alone, over one 1 MB buffer (a cold-drain page is
/// ~1.1 MB): bytes_per_second is Crc32's throughput.
void BM_Crc32(benchmark::State& state) {
  Rng rng(43);
  std::vector<unsigned char> buf(1 << 20);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/// What one page read costs between the read queue and the join result:
/// each iteration copies the encoded page into a fresh buffer (as a read
/// does), Parses it (crc included) and merge-joins one batch, so every
/// iteration computes its positions anew. The join benches above re-scan
/// one parsed page and cannot see that cost.
/// /0 is cold-drain's shape: a 40k-object page (~1.1 MB) over 1/50 of the
/// sky (a 16.26° cap) and a sparse batch of 360 query objects at 10″ (a
/// cold-drain page serves ~360 query objects and ~2 candidates a drain).
/// /1 is hot-join's: a 2k-object page and 500 query objects at 300″,
/// whose windows cover most rows. `candidates` is
/// JoinCounters::candidates_tested per iteration.
void BM_ParsePageAndJoin(benchmark::State& state) {
  const JoinFixture fixture =
      state.range(0) == 1 ? JoinFixture::Make(2'000, 500, 300.0)
                          : JoinFixture::Make(40'000, 360, 10.0, 16.26);
  const std::string_view bytes = fixture.bucket.page().bytes();
  uint64_t candidates = 0;
  for (auto _ : state) {
    std::unique_ptr<char[]> buf(new char[bytes.size()]);
    std::memcpy(buf.get(), bytes.data(), bytes.size());
    auto page = storage::ColumnarPage::Parse(std::move(buf), bytes.size());
    if (!page.ok()) {
      state.SkipWithError(page.status().ToString().c_str());
      break;
    }
    const storage::Bucket bucket(0, std::move(*page));
    const join::JoinCounters counters =
        join::MergeCrossMatch(bucket, fixture.batch, nullptr);
    candidates = counters.candidates_tested;
    benchmark::DoNotOptimize(counters);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_ParsePageAndJoin)->Arg(0)->Arg(1);

/// The Query Pre-Processor's split of one query into per-bucket
/// workloads, as every admission runs it. /0 is hot-join's shape: 200
/// objects at 300″ in a 10° cap on a 200-bucket map (a 300″ cover has
/// about 11 ranges, so many objects reach two buckets). /1 is
/// cold-drain's: 24 objects at 10″ in a 30° cap on 50 buckets. `pairs` is
/// the (object, bucket) pairs per split, `buckets` its workloads.
void BM_SplitQueryByBucket(benchmark::State& state) {
  const bool cold = state.range(0) == 1;
  auto partition = storage::PartitionCatalog(BenchObjects(200'000),
                                             cold ? 4'000 : 1'000);
  Rng rng(47);
  const SkyPoint center{200.0, 20.0};
  query::CrossMatchQuery q;
  q.id = 1;
  for (uint64_t i = 0; i < (cold ? 24u : 200u); ++i) {
    q.objects.push_back(query::MakeQueryObject(
        i, workload::RandomPointInCap(&rng, center, cold ? 30.0 : 10.0),
        cold ? 10.0 : 300.0));
  }
  size_t pairs = 0;
  size_t buckets = 0;
  for (auto _ : state) {
    auto workloads = query::SplitQueryByBucket(q, *partition->map);
    buckets = workloads.size();
    pairs = 0;
    for (const auto& w : workloads) pairs += w.objects.size();
    benchmark::DoNotOptimize(workloads);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["buckets"] = static_cast<double>(buckets);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(q.objects.size()));
}
BENCHMARK(BM_SplitQueryByBucket)->Arg(0)->Arg(1);

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

/// NoShare drain: per-query scans, each bucket read store-direct. The
/// name and the /1 argument are kept so the entries of the committed
/// BENCH_*.json anchors line up; every join runs on one thread.
void BM_EngineNoShareThreads(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kNoShare;
  sim::SimEngine engine(fx.catalog.get(), nullptr, config);
  for (auto _ : state) {
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_EngineNoShareThreads)->Arg(1);

/// The join kernel's per-candidate cost at a wide radius: 1000 query
/// objects with a 300-arcsec radius merge-joined against one parsed
/// 10k-object columnar page. Most HTM-window candidates lie outside the
/// radius, which is where join::RadiusTest's dot-product stage pays.
/// candidates_per_second is JoinCounters::candidates_tested per wall
/// second.
void BM_CrossMatchWideRadius(benchmark::State& state) {
  auto fixture = JoinFixture::Make(10'000, 1000, 300.0);
  uint64_t candidates = 0;
  for (auto _ : state) {
    auto counters =
        join::MergeCrossMatch(fixture.bucket, fixture.batch, nullptr);
    candidates += counters.candidates_tested;
    benchmark::DoNotOptimize(counters);
  }
  state.counters["candidates_per_second"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CrossMatchWideRadius)->UseRealTime();

/// Real-I/O drain: the shared prefetch drain executed in wall-clock mode
/// (EngineConfig::io_mode = kReal) against an on-disk FileStore, at the
/// arg's volume count. Prefetch bets and foreground misses are actual
/// pread(2)s through the per-volume submission queues — O_DIRECT when the
/// filesystem allows it, buffered otherwise (the direct_io counter records
/// which) — so real_time here IS the measured drain, and the multi-volume
/// speedup is physical overlap of device-blocked reads, not virtual
/// arithmetic. Catalog size comes from LIFERAFT_BENCH_REAL_IO_OBJECTS
/// (default 2M objects, ~49 MB of pages; catalog_mb reports the file);
/// committed anchors record a >= 1 GB run (see docs/BENCHMARKS.md). Wall
/// numbers are machine- and cache-state-dependent by design: the bench is
/// skip-listed from the regression gate and exists to document the
/// measured speedup, with the modeled benches above still carrying the
/// gated counters. A fixture step that fails skips the bench with its
/// Status.
void BM_RealIoDrain(benchmark::State& state) {
  struct RealIoFiles {
    Status status;
    std::string path;
    uint64_t bytes = 0;
    std::vector<query::CrossMatchQuery> trace;
    std::vector<TimeMs> arrivals;
  };
  static const RealIoFiles& files = *[] {
    auto* f = new RealIoFiles;
    f->status = [f]() -> Status {
      size_t num_objects = 2'000'000;
      if (const char* env = std::getenv("LIFERAFT_BENCH_REAL_IO_OBJECTS")) {
        num_objects = static_cast<size_t>(std::strtoull(env, nullptr, 10));
      }
      f->path = (std::filesystem::temp_directory_path() /
                 ("liferaft_bench_realio_" + std::to_string(::getpid()) +
                  ".lfr"))
                    .string();
      // Every run of the process reads the one archive; it goes at exit.
      static const std::string* const path = &f->path;
      std::atexit([] {
        std::error_code ignored;
        std::filesystem::remove(*path, ignored);
      });
      workload::CatalogGenConfig gen;
      gen.num_objects = num_objects;
      gen.seed = 43;
      LIFERAFT_ASSIGN_OR_RETURN(std::vector<storage::CatalogObject> objects,
                                workload::GenerateCatalog(gen));
      // 50k objects per bucket => ~1.3 MB pages: each prefetch bet is a
      // millisecond-scale pread, so the drain is device-bound and the
      // volume axis measures real overlap. (Small pages on a fast NVMe-
      // backed disk make the drain CPU-bound and the volume axis noise.)
      LIFERAFT_ASSIGN_OR_RETURN(
          storage::PartitionResult partition,
          storage::PartitionCatalog(std::move(objects), 50'000));
      LIFERAFT_RETURN_IF_ERROR(
          storage::FileStore::Create(f->path, partition.buckets));
      f->bytes = std::filesystem::file_size(f->path);
      // Evict the just-written pages so the measured drain reads the
      // device, not the page cache — this is what makes the buffered-
      // fallback mode honest too (O_DIRECT bypasses the cache either way).
      int fd = ::open(f->path.c_str(), O_RDONLY);
      if (fd >= 0) {
#ifdef POSIX_FADV_DONTNEED
        (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
        ::close(fd);
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
      LIFERAFT_ASSIGN_OR_RETURN(f->trace, workload::GenerateTrace(tc));
      f->arrivals.assign(tc.num_queries, 0.0);
      return Status::OK();
    }();
    return f;
  }();
  if (!files.status.ok()) {
    state.SkipWithError(files.status.ToString().c_str());
    return;
  }

  storage::FileStoreOptions options;
  options.use_direct_io = true;
  options.advise_random = true;
  auto store = storage::FileStore::Open(files.path, options);
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return;
  }
  const bool direct = (*store)->direct_io_active();
  auto catalog = storage::Catalog::FromStore(std::move(*store));
  if (!catalog.ok()) {
    state.SkipWithError(catalog.status().ToString().c_str());
    return;
  }

  sim::EngineConfig config;
  config.io_mode = sim::IoMode::kReal;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
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
    if (!metrics.ok()) {
      state.SkipWithError(metrics.status().ToString().c_str());
      break;
    }
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
      static_cast<double>(files.bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_RealIoDrain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// IndexOnly drain: per-query index probes. The name and the /1 argument
/// are kept so the entries of the committed BENCH_*.json anchors line up.
void BM_EngineIndexOnlyThreads(benchmark::State& state) {
  auto fx = EngineFixture::Make(30'000, 24);
  sim::EngineConfig config;
  config.mode = sim::ExecutionMode::kIndexOnly;
  sim::SimEngine engine(fx.catalog.get(), nullptr, config);
  for (auto _ : state) {
    auto metrics = engine.Run(fx.trace, fx.arrivals);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_EngineIndexOnlyThreads)->Arg(1);

}  // namespace
}  // namespace liferaft

BENCHMARK_MAIN();
