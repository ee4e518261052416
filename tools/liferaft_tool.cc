// liferaft_tool — command-line utility for working with LifeRaft archives
// and traces (the `ldb` of this project).
//
//   liferaft_tool gen-catalog  --objects N [--per-bucket K] [--seed S]
//                              [--format row|columnar] --out F
//   liferaft_tool inspect      --store F [--verify-checksums] [--volumes N]
//   liferaft_tool verify       --store F
//   liferaft_tool gen-trace    --queries N [--seed S] [--preset long] --out F
//   liferaft_tool trace-stats  --trace F --store F
//   liferaft_tool replay       --trace F --store F [--alpha A] [--rate R]
//                              [--cache C] [--mode shared|noshare|indexonly]
//                              [--io modeled|real] [--volumes N]
//                              [--prefetch D] [--direct]
//
// All subcommands print human-readable reports to stdout and return a
// non-zero exit code on failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "storage/async_io.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "storage/topology.h"
#include "util/random.h"
#include "util/table.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace liferaft::tool {
namespace {

// ------------------------------------------------------- flag parsing ----

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        return;
      }
      std::string key = arg.substr(2);
      // A flag followed by another flag (or nothing) is boolean true:
      // `inspect --store F --verify-checksums`.
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        // Move-assigned, not `= "1"`: GCC 12 reports a false -Wrestrict on
        // the inlined char* assignment.
        values_[key] = std::string("1");
      } else {
        values_[key] = argv[++i];
      }
    }
  }

  bool ok() const { return ok_; }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr,
                                               10);
  }

  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    return it != values_.end() && it->second != "0" &&
           it->second != "false";
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

  bool Require(const std::vector<std::string>& keys) const {
    for (const auto& key : keys) {
      if (values_.count(key) == 0) {
        std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Reads every bucket of a FileStore back into an in-memory Catalog (with
// index) so the replay path has the full execution substrate.
Result<std::unique_ptr<storage::Catalog>> LoadCatalog(
    const std::string& path, size_t objects_per_bucket) {
  LIFERAFT_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStore> store,
                            storage::FileStore::Open(path));
  std::vector<storage::CatalogObject> objects;
  for (storage::BucketIndex i = 0; i < store->num_buckets(); ++i) {
    LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Bucket> b,
                              store->ReadBucket(i));
    objects.insert(objects.end(), b->objects().begin(),
                   b->objects().end());
    if (objects_per_bucket == 0) {
      objects_per_bucket = std::max(objects_per_bucket, b->size());
    }
  }
  storage::CatalogOptions options;
  options.objects_per_bucket = objects_per_bucket;
  return storage::Catalog::Build(std::move(objects), options);
}

// ---------------------------------------------------------- subcommands --

int GenCatalog(const Flags& flags) {
  if (!flags.Require({"objects", "out"})) return 2;
  workload::CatalogGenConfig gen;
  gen.num_objects = flags.GetUint("objects", 0);
  gen.seed = flags.GetUint("seed", 7);
  auto objects = workload::GenerateCatalog(gen);
  if (!objects.ok()) return Fail(objects.status());

  size_t per_bucket = flags.GetUint("per-bucket", 1000);
  auto partition = storage::PartitionCatalog(std::move(*objects),
                                             per_bucket);
  if (!partition.ok()) return Fail(partition.status());
  const std::string format = flags.GetString("format", "columnar");
  storage::BucketFormat bucket_format;
  if (format == "row") {
    bucket_format = storage::BucketFormat::kRowV1;
  } else if (format == "columnar") {
    bucket_format = storage::BucketFormat::kColumnarV2;
  } else {
    std::fprintf(stderr, "unknown --format %s (row|columnar)\n",
                 format.c_str());
    return 2;
  }
  Status st = storage::FileStore::Create(flags.GetString("out"),
                                         partition->buckets, bucket_format);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu objects in %zu buckets to %s (%s)\n",
              gen.num_objects, partition->buckets.size(),
              flags.GetString("out").c_str(), format.c_str());
  return 0;
}

int Inspect(const Flags& flags) {
  if (!flags.Require({"store"})) return 2;
  auto store = storage::FileStore::Open(flags.GetString("store"));
  if (!store.ok()) return Fail(store.status());
  size_t total = 0, smallest = SIZE_MAX, largest = 0;
  for (storage::BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    size_t n = (*store)->BucketObjectCount(i);
    total += n;
    smallest = std::min(smallest, n);
    largest = std::max(largest, n);
  }
  std::printf("store:        %s\n", flags.GetString("store").c_str());
  std::printf("format:       %s\n",
              (*store)->format() == storage::BucketFormat::kColumnarV2
                  ? "columnar v2"
                  : "row v1");
  std::printf("buckets:      %zu\n", (*store)->num_buckets());
  std::printf("objects:      %zu (min %zu / max %zu per bucket)\n", total,
              smallest, largest);
  auto first = (*store)->bucket_map().RangeOf(0);
  std::printf("curve start:  [%llu, %llu] (%s..)\n",
              static_cast<unsigned long long>(first.lo),
              static_cast<unsigned long long>(first.hi),
              htm::IdToName(htm::AncestorAt(first.lo, 2)).c_str());
  if (!flags.GetBool("verify-checksums")) return 0;

  // Full checksum sweep through the per-volume submission queues (the same
  // read path real-I/O execution uses), reporting corruption per volume.
  storage::StorageTopologyConfig topo_config;
  topo_config.num_volumes =
      std::max<uint64_t>(1, flags.GetUint("volumes", 1));
  auto topology = storage::StorageTopology::Create(
      (*store)->num_buckets(), topo_config, storage::DiskModelParams{});
  if (!topology.ok()) return Fail(topology.status());
  auto reader = (*store)->NewAsyncReader(&*topology);
  size_t corrupt = 0;
  for (storage::BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    reader->SubmitRead(i, [&](const storage::AsyncReadCompletion& c) {
      if (c.status.ok()) return;
      ++corrupt;
      std::printf("bucket %u (volume %u): %s\n", c.index, c.volume,
                  c.status.ToString().c_str());
    });
  }
  reader->Drain();
  std::printf("checksums:    %zu buckets over %zu volume(s)\n",
              (*store)->num_buckets(), topology->num_volumes());
  std::vector<storage::AsyncVolumeStats> stats = reader->VolumeStats();
  for (size_t v = 0; v < stats.size(); ++v) {
    std::printf("  volume %zu:   %llu reads, %llu failed (%llu checksum)\n",
                v, static_cast<unsigned long long>(stats[v].reads),
                static_cast<unsigned long long>(stats[v].failures),
                static_cast<unsigned long long>(stats[v].checksum_failures));
  }
  if (corrupt != 0) {
    std::printf("FAILED: %zu corrupt buckets\n", corrupt);
    return 1;
  }
  std::printf("OK: all checksums verified\n");
  return 0;
}

int Verify(const Flags& flags) {
  if (!flags.Require({"store"})) return 2;
  auto store = storage::FileStore::Open(flags.GetString("store"));
  if (!store.ok()) return Fail(store.status());
  size_t bad = 0;
  for (storage::BucketIndex i = 0; i < (*store)->num_buckets(); ++i) {
    auto bucket = (*store)->ReadBucket(i);
    if (!bucket.ok()) {
      std::printf("bucket %u: %s\n", i, bucket.status().ToString().c_str());
      ++bad;
    }
  }
  if (bad == 0) {
    std::printf("OK: all %zu buckets verified\n", (*store)->num_buckets());
    return 0;
  }
  std::printf("FAILED: %zu corrupt buckets\n", bad);
  return 1;
}

int GenTrace(const Flags& flags) {
  if (!flags.Require({"queries", "out"})) return 2;
  workload::TraceConfig tc = flags.GetString("preset") == "long"
                                 ? workload::LongRunningSkyQueryPreset()
                                 : workload::TraceConfig{};
  tc.num_queries = flags.GetUint("queries", 0);
  tc.seed = flags.GetUint("seed", 42);
  auto trace = workload::GenerateTrace(tc);
  if (!trace.ok()) return Fail(trace.status());
  Status st = workload::SaveTrace(flags.GetString("out"), *trace);
  if (!st.ok()) return Fail(st);
  size_t objects = 0;
  for (const auto& q : *trace) objects += q.objects.size();
  std::printf("wrote %zu queries (%zu cross-match objects) to %s\n",
              trace->size(), objects, flags.GetString("out").c_str());
  return 0;
}

int TraceStats(const Flags& flags) {
  if (!flags.Require({"trace", "store"})) return 2;
  auto trace = workload::LoadTrace(flags.GetString("trace"));
  if (!trace.ok()) return Fail(trace.status());
  auto store = storage::FileStore::Open(flags.GetString("store"));
  if (!store.ok()) return Fail(store.status());
  const storage::BucketMap& map = (*store)->bucket_map();

  auto touches = workload::CharacterizeTrace(*trace, map);
  double top10 = workload::TopKTouchFraction(*trace, map, 10);
  double mass50 =
      workload::BucketFractionForMass(touches, (*store)->num_buckets(), 0.5);
  std::printf("queries:                   %zu\n", trace->size());
  std::printf("buckets touched:           %zu of %zu\n", touches.size(),
              (*store)->num_buckets());
  std::printf("top-10 bucket touch rate:  %.1f%% of queries\n",
              top10 * 100.0);
  std::printf("buckets holding 50%% mass:  %.1f%%\n", mass50 * 100.0);
  return 0;
}

int Replay(const Flags& flags) {
  if (!flags.Require({"trace", "store"})) return 2;
  auto trace = workload::LoadTrace(flags.GetString("trace"));
  if (!trace.ok()) return Fail(trace.status());

  const std::string io = flags.GetString("io", "modeled");
  if (io != "modeled" && io != "real") {
    std::fprintf(stderr, "unknown --io %s (modeled|real)\n", io.c_str());
    return 2;
  }
  const bool real_io = io == "real";

  std::unique_ptr<storage::Catalog> catalog;
  bool direct_active = false;
  if (real_io) {
    // Real mode must execute against the file itself: LoadCatalog's
    // read-everything-into-memory path would turn every "read" into a
    // memcpy and the wall-clock telemetry into fiction.
    storage::FileStoreOptions options;
    options.use_direct_io = flags.GetBool("direct");
    options.advise_random = true;
    auto store =
        storage::FileStore::Open(flags.GetString("store"), options);
    if (!store.ok()) return Fail(store.status());
    direct_active = (*store)->direct_io_active();
    auto wrapped = storage::Catalog::FromStore(std::move(*store));
    if (!wrapped.ok()) return Fail(wrapped.status());
    catalog = std::move(*wrapped);
  } else {
    auto loaded = LoadCatalog(flags.GetString("store"),
                              flags.GetUint("per-bucket", 0));
    if (!loaded.ok()) return Fail(loaded.status());
    catalog = std::move(*loaded);
  }

  double rate = flags.GetDouble("rate", 0.5);
  Rng rng(flags.GetUint("seed", 1));
  auto arrivals = *sim::PoissonArrivals(trace->size(), rate, &rng);

  sim::EngineConfig config;
  config.cache_capacity = flags.GetUint("cache", 20);
  config.io_mode = real_io ? sim::IoMode::kReal : sim::IoMode::kModeled;
  config.topology.num_volumes = flags.GetUint("volumes", 1);
  size_t prefetch = flags.GetUint("prefetch", 0);
  if (prefetch > 0) {
    config.enable_prefetch = true;
    config.prefetch_depth = prefetch;
  }
  std::string mode = flags.GetString("mode", "shared");
  std::unique_ptr<sched::Scheduler> scheduler;
  if (mode == "shared") {
    sched::LifeRaftConfig sched_config;
    sched_config.alpha = flags.GetDouble("alpha", 0.25);
    scheduler = std::make_unique<sched::LifeRaftScheduler>(
        catalog->store(), storage::DiskModel(config.disk), sched_config);
  } else if (mode == "noshare") {
    config.mode = sim::ExecutionMode::kNoShare;
  } else if (mode == "indexonly") {
    config.mode = sim::ExecutionMode::kIndexOnly;
  } else {
    std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
    return 2;
  }

  sim::SimEngine engine(catalog.get(), std::move(scheduler), config);
  auto metrics = engine.Run(*trace, arrivals);
  if (!metrics.ok()) return Fail(metrics.status());
  std::printf("%s\n", metrics->Summary().c_str());
  std::printf("p50 response: %.1f s   p95 response: %.1f s\n",
              metrics->p50_response_ms / 1000.0,
              metrics->p95_response_ms / 1000.0);
  std::printf("scan batches: %llu   indexed batches: %llu\n",
              static_cast<unsigned long long>(metrics->evaluator.scan_batches),
              static_cast<unsigned long long>(
                  metrics->evaluator.indexed_batches));
  if (metrics->real_io_enabled) {
    std::printf("real I/O (%s):\n",
                direct_active ? "O_DIRECT" : "buffered");
    for (size_t v = 0; v < metrics->real_io.size(); ++v) {
      const storage::AsyncVolumeStats& s = metrics->real_io[v];
      std::printf(
          "  volume %zu: %llu reads, %.1f MB, p50 %.2f ms, p99 %.2f ms, "
          "%llu failed (%llu checksum)\n",
          v, static_cast<unsigned long long>(s.reads),
          static_cast<double>(s.bytes) / (1024.0 * 1024.0), s.p50_latency_ms,
          s.p99_latency_ms, static_cast<unsigned long long>(s.failures),
          static_cast<unsigned long long>(s.checksum_failures));
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: liferaft_tool <command> [flags]\n"
      "  gen-catalog  --objects N [--per-bucket K] [--seed S]\n"
      "               [--format row|columnar] --out F\n"
      "  inspect      --store F [--verify-checksums] [--volumes N]\n"
      "  verify       --store F\n"
      "  gen-trace    --queries N [--seed S] [--preset long] --out F\n"
      "  trace-stats  --trace F --store F\n"
      "  replay       --trace F --store F [--alpha A] [--rate R]\n"
      "               [--cache C] [--mode shared|noshare|indexonly]\n"
      "               [--io modeled|real] [--volumes N] [--prefetch D]\n"
      "               [--direct]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  if (command == "gen-catalog") return GenCatalog(flags);
  if (command == "inspect") return Inspect(flags);
  if (command == "verify") return Verify(flags);
  if (command == "gen-trace") return GenTrace(flags);
  if (command == "trace-stats") return TraceStats(flags);
  if (command == "replay") return Replay(flags);
  return Usage();
}

}  // namespace
}  // namespace liferaft::tool

int main(int argc, char** argv) { return liferaft::tool::Main(argc, argv); }
