// bench_e2e — the end-to-end benchmark (workloads and metrics: README.md).
//
//   bench_e2e --workload <name> --seed <n> [--seconds S] [--traced]
//             [--fixture-dir DIR] [--out run.json] [--trace-json spans.json]
//   bench_e2e --smoke [--fixture-dir DIR]
//
// One invocation:
//   1. makes or reuses the workload's fixture — the archive file, the saved
//      query trace for this seed, and the modeled oracle run — in a child
//      process, so fixture memory never reaches peak_rss_mb. Fixtures are
//      keyed by a hash of this executable, so a rebuild against changed
//      library code makes all three again with that code;
//   2. sets the system up several times (store open, index build, trace
//      load with cover recomputation, engine construction) and keeps the
//      median set-up time;
//   3. runs the workload through the public entry points (SimEngine::Run in
//      IoMode::kReal, or Serve on the modeled clock) for --seconds;
//   4. checks every query's match count against the modeled oracle;
//   5. prints every metric as `name value unit`.
// With --traced the timed phase alternates iterations of a decorated
// (traced) system and an undecorated one and reports per-layer metrics
// instead of end-to-end ones.
// Exit status: 0 ok, 1 correctness or runtime failure, 2 usage.

#include <fcntl.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/mem_store.h"
#include "tracing.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stats.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_E2E_GIT_SHA
#define BENCH_E2E_GIT_SHA "unknown"
#endif

namespace liferaft::bench_e2e {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

// ------------------------------------------------------------- workloads --

struct Workload {
  std::string name;
  /// Archive fixture name; workloads naming the same archive share its file.
  std::string archive;
  uint64_t archive_seed = 0;
  size_t archive_objects = 0;
  size_t objects_per_bucket = 0;
  /// Query stream; its seed comes from --seed.
  workload::TraceConfig trace;
  /// Open-loop Serve on the modeled clock instead of a closed real drain.
  bool serve = false;
  double rate_qps = 0.0;
  /// Queries splitting into at most this many buckets are interactive,
  /// larger ones batch (Serve's QoS classes; the modeled class metrics).
  size_t interactive_max_parts = 8;
  /// O_DIRECT reads, page cache of the archive dropped before set-up.
  bool direct_io = false;
  size_t cache_capacity = 20;
  size_t volumes = 1;
  /// Workload-manager memory budget in objects (0 = no spilling).
  uint64_t memory_budget = 0;
};

const char* const kWorkloadNames[] = {"cold-drain", "hot-join", "spill-drain",
                                      "serve-saturated"};

// Two archives back the four workloads:
//  * "sky"   — 2M objects in 40k-object columnar pages (~1 MB each, 50
//    buckets): about 8x the 6-bucket cache of cold-drain, so every drain
//    reads the archive from the device.
//  * "dense" — 400k objects in 2k-object pages (200 buckets), small enough
//    for hot-join's 256-bucket cache.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool smoke) {
  Workload w;
  w.name = name;
  if (name == "cold-drain" || name == "spill-drain") {
    w.archive = "sky";
    w.archive_seed = 43;
    w.archive_objects = 2'000'000;
    w.objects_per_bucket = 40'000;
    w.direct_io = true;
  } else if (name == "hot-join" || name == "serve-saturated") {
    w.archive = "dense";
    w.archive_seed = 44;
    w.archive_objects = 400'000;
    w.objects_per_bucket = 2'000;
  } else {
    return std::nullopt;
  }

  // Drains submit kDrainQueries at t=0, placed uniformly on the sky: enough
  // queries that each drain's p99 has ten samples beyond it, and no hotspot
  // whose landing on a dense catalog cluster would make one seed's drain
  // much heavier than another's. Per-query object caps keep the heavy tail
  // of the log-uniform footprints from deciding a drain's cost.
  constexpr size_t kDrainQueries = 1'000;
  if (name != "serve-saturated") {
    w.trace = workload::SkewedTracePreset(workload::SkewLevel::kUniform,
                                          kDrainQueries, seed);
  }
  if (name == "cold-drain") {
    // Sky-spanning cones with a small match radius: many bucket pages per
    // query, little join work per page.
    w.trace.min_radius_deg = 5.0;
    w.trace.max_radius_deg = 60.0;
    w.trace.objects_per_sq_deg = 0.01;
    w.trace.min_objects_per_query = 8;
    w.trace.max_objects_per_query = 40;
    w.trace.match_radius_arcsec = 10.0;
    w.cache_capacity = 6;
    w.volumes = 2;
  } else if (name == "hot-join") {
    // Dense trace with a wide match radius: join-bound. One join thread:
    // with a two-thread pool, back-to-back runs of one seed spread 15% on a
    // shared 4-vCPU host, against 4% on one thread.
    w.trace.max_objects_per_query = 200;
    w.trace.match_radius_arcsec = 300.0;
    w.cache_capacity = 256;
  } else if (name == "spill-drain") {
    w.trace.max_objects_per_query = 200;
    w.memory_budget = 5'000;
    w.cache_capacity = 6;
    // Its footprints are small: over a quarter of the queries still split
    // into more than 3 buckets.
    w.interactive_max_parts = 3;
  } else {
    // Interactive/batch mix: p_small of the queries are small cones that
    // split into few bucket sub-queries (interactive class).
    w.serve = true;
    w.trace.num_queries = 2'500;
    w.trace.min_radius_deg = 3.0;
    w.trace.max_radius_deg = 60.0;
    w.trace.p_small = 0.35;
    w.trace.small_max_radius_deg = 3.0;
    w.trace.objects_per_sq_deg = 0.05;
    w.trace.max_objects_per_query = 300;
    w.interactive_max_parts = 4;
    // Past the knee: the modeled system sustains ~17 of the 20 offered
    // queries per second, so the backlog grows for the whole run.
    w.rate_qps = 20.0;
    w.volumes = 2;
  }
  w.trace.seed = seed;

  if (smoke) {
    // Own names, so smoke fixtures never stand in for full-size ones.
    w.name += "-smoke";
    w.archive += "-smoke";
    w.archive_objects /= 20;
    w.objects_per_bucket /= 20;
    w.trace.num_queries = w.serve ? 120 : 24;
    w.trace.max_objects_per_query =
        std::min<size_t>(w.trace.max_objects_per_query, 400);
    if (w.memory_budget > 0) w.memory_budget = 500;
  }
  return w;
}

sim::EngineConfig EngineConfigFor(const Workload& w, sim::IoMode io,
                                  const std::string& spill_path) {
  sim::EngineConfig c;
  c.mode = sim::ExecutionMode::kShared;
  c.io_mode = io;
  c.cache_capacity = w.cache_capacity;
  c.topology.num_volumes = w.volumes;
  c.topology.placement = storage::VolumePlacement::kHash;
  c.enable_prefetch = true;
  c.prefetch_depth = 2;
  c.collect_matches = true;
  if (w.memory_budget > 0) {
    c.spill_path = spill_path;
    c.workload_memory_budget = w.memory_budget;
  }
  return c;
}

/// LifeRaft at a fixed alpha; no alpha selector, no QoS weighting.
std::unique_ptr<sched::LifeRaftScheduler> MakeScheduler(
    const storage::Catalog& catalog) {
  sched::LifeRaftConfig sc;
  sc.alpha = 0.25;
  return std::make_unique<sched::LifeRaftScheduler>(
      catalog.store(), storage::DiskModel{}, sc);
}

/// Poisson arrivals at the workload's rate; no load shedding.
sim::ServeConfig ServeConfigFor(const Workload& w) {
  sim::ServeConfig s;
  s.arrivals.kind = sim::ArrivalSpec::Kind::kPoisson;
  s.arrivals.rate_qps = w.rate_qps;
  s.arrivals.seed = w.trace.seed;
  s.interactive_max_parts = w.interactive_max_parts;
  return s;
}

// -------------------------------------------------------------- fixtures --

struct FixturePaths {
  std::string archive;
  std::string trace;
  std::string oracle;
  /// Run-scoped spill scratch (the workload manager deletes it).
  std::string spill;
};

/// FNV-1a of this executable's bytes. Everything a fixture is made from —
/// the workload definitions, the generators, the file format and the
/// engine that computes the oracle — is code linked into it, so a fixture
/// made under another key is never reused.
Result<std::string> BuildKey() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) return Status::IOError("cannot read /proc/self/exe");
  uint64_t h = 14695981039346656037ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(hex);
}

FixturePaths PathsFor(const std::string& fixture_dir,
                      const std::string& build_key, const Workload& w,
                      uint64_t seed) {
  const fs::path root = fs::path(fixture_dir) / ("build-" + build_key);
  const fs::path dir = root / w.name;
  const std::string s = std::to_string(seed);
  FixturePaths p;
  p.archive = (root / ("archive-" + w.archive + ".lfr")).string();
  p.trace = (dir / ("trace-" + s + ".bin")).string();
  p.oracle = (dir / ("oracle-" + s + ".txt")).string();
  p.spill =
      (dir / ("spill-" + std::to_string(::getpid()) + ".bin")).string();
  return p;
}

/// What the modeled oracle run produced for one (workload, seed).
struct Oracle {
  double modeled_qps = 0.0;
  double modeled_p50_ms = 0.0;
  double modeled_p99_ms = 0.0;
  /// Response percentiles of the queries splitting into at most
  /// Workload::interactive_max_parts buckets, and p99 of the others.
  double modeled_interactive_p95_ms = 0.0;
  double modeled_interactive_p99_ms = 0.0;
  double modeled_batch_p99_ms = 0.0;
  size_t interactive_completed = 0;
  size_t batch_completed = 0;
  /// RunMetricsJson of the oracle run; Serve must reproduce it exactly.
  std::string metrics_json;
  std::unordered_map<query::QueryId, uint64_t> matches;
};

std::string TempPath(const std::string& path) {
  return path + ".tmp" + std::to_string(::getpid());
}

Status Publish(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  return Status::OK();
}

Status WriteOracle(const std::string& path, const Oracle& o) {
  const std::string tmp = TempPath(path);
  {
    std::ofstream out(tmp);
    out.precision(17);
    out << "modeled " << o.modeled_qps << " " << o.modeled_p50_ms << " "
        << o.modeled_p99_ms << "\n";
    out << "classes " << o.modeled_interactive_p95_ms << " "
        << o.modeled_interactive_p99_ms << " " << o.modeled_batch_p99_ms << " "
        << o.interactive_completed << " " << o.batch_completed << "\n";
    out << "json " << o.metrics_json << "\n";
    std::vector<std::pair<query::QueryId, uint64_t>> rows(o.matches.begin(),
                                                          o.matches.end());
    std::sort(rows.begin(), rows.end());
    for (const auto& [id, m] : rows) out << "q " << id << " " << m << "\n";
    if (!out.flush()) return Status::IOError("cannot write " + tmp);
  }
  return Publish(tmp, path);
}

Result<Oracle> ReadOracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  Oracle o;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string tag;
    row >> tag;
    if (tag == "modeled") {
      row >> o.modeled_qps >> o.modeled_p50_ms >> o.modeled_p99_ms;
    } else if (tag == "classes") {
      row >> o.modeled_interactive_p95_ms >> o.modeled_interactive_p99_ms >>
          o.modeled_batch_p99_ms >> o.interactive_completed >>
          o.batch_completed;
    } else if (tag == "json") {
      o.metrics_json = line.substr(5);
    } else if (tag == "q") {
      query::QueryId id = 0;
      uint64_t m = 0;
      row >> id >> m;
      o.matches[id] = m;
    }
    if (!row && tag != "json") return Status::Corruption("bad oracle line");
  }
  if (o.matches.empty()) return Status::Corruption("empty oracle " + path);
  return o;
}

/// Copies every bucket of `file` into a MemStore.
Result<std::unique_ptr<storage::BucketStore>> LoadIntoMemory(
    storage::FileStore& file) {
  storage::PartitionResult partition;
  partition.map = std::make_shared<storage::BucketMap>(file.bucket_map());
  partition.buckets.reserve(file.num_buckets());
  for (storage::BucketIndex b = 0; b < file.num_buckets(); ++b) {
    LIFERAFT_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Bucket> bucket,
                              file.ReadBucket(b));
    partition.buckets.push_back(*bucket);
  }
  return std::unique_ptr<storage::BucketStore>(
      std::make_unique<storage::MemStore>(std::move(partition)));
}

/// Opens the archive the way the workload reads it — a FileStore, or its
/// pages copied into a MemStore — optionally behind a TimedStore, wrapped
/// by Catalog::FromStore (index build).
Result<std::unique_ptr<storage::Catalog>> OpenCatalog(const Workload& w,
                                                      const std::string& path,
                                                      Recorder* rec,
                                                      bool* direct_active) {
  storage::FileStoreOptions options;
  options.use_direct_io = w.direct_io;
  options.advise_random = true;
  LIFERAFT_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStore> file,
                            storage::FileStore::Open(path, options));
  if (direct_active != nullptr) *direct_active = file->direct_io_active();
  std::unique_ptr<storage::BucketStore> store;
  if (w.serve) {
    // Serve charges modeled I/O, so its reads need no device and storage
    // cost stays out of its wall time.
    LIFERAFT_ASSIGN_OR_RETURN(store, LoadIntoMemory(*file));
  } else {
    store = std::move(file);
  }
  if (rec != nullptr) {
    store = std::make_unique<TimedStore>(std::move(store), rec);
  }
  return storage::Catalog::FromStore(std::move(store));
}

Status BuildFixture(const Workload& w, const FixturePaths& p) {
  std::error_code ec;
  fs::create_directories(fs::path(p.trace).parent_path(), ec);
  if (ec) return Status::IOError("cannot create fixture directory: " +
                                 ec.message());
  if (!fs::exists(p.archive)) {
    workload::CatalogGenConfig gen;
    gen.num_objects = w.archive_objects;
    gen.seed = w.archive_seed;
    LIFERAFT_ASSIGN_OR_RETURN(std::vector<storage::CatalogObject> objects,
                              workload::GenerateCatalog(gen));
    LIFERAFT_ASSIGN_OR_RETURN(
        storage::PartitionResult partition,
        storage::PartitionCatalog(std::move(objects), w.objects_per_bucket));
    const std::string tmp = TempPath(p.archive);
    LIFERAFT_RETURN_IF_ERROR(storage::FileStore::Create(
        tmp, partition.buckets, storage::BucketFormat::kColumnarV2));
    LIFERAFT_RETURN_IF_ERROR(Publish(tmp, p.archive));
  }
  if (!fs::exists(p.trace)) {
    LIFERAFT_ASSIGN_OR_RETURN(std::vector<query::CrossMatchQuery> trace,
                              workload::GenerateTrace(w.trace));
    const std::string tmp = TempPath(p.trace);
    LIFERAFT_RETURN_IF_ERROR(workload::SaveTrace(tmp, trace));
    LIFERAFT_RETURN_IF_ERROR(Publish(tmp, p.trace));
  }
  if (!fs::exists(p.oracle)) {
    // The oracle: the same configuration on the virtual clock.
    LIFERAFT_ASSIGN_OR_RETURN(std::unique_ptr<storage::Catalog> catalog,
                              OpenCatalog(w, p.archive, nullptr, nullptr));
    LIFERAFT_ASSIGN_OR_RETURN(std::vector<query::CrossMatchQuery> trace,
                              workload::LoadTrace(p.trace));
    sim::SimEngine engine(
        catalog.get(), MakeScheduler(*catalog),
        EngineConfigFor(w, sim::IoMode::kModeled, TempPath(p.spill)));
    Result<sim::RunMetrics> m =
        w.serve ? engine.Serve(trace, ServeConfigFor(w))
                : engine.Run(trace, std::vector<TimeMs>(trace.size(), 0.0));
    if (!m.ok()) return m.status();
    Oracle o;
    o.modeled_qps = w.serve ? m->sustained_qps : m->throughput_qps;
    o.modeled_p50_ms = m->p50_response_ms;
    o.modeled_p99_ms = m->p99_response_ms;
    o.metrics_json = sim::RunMetricsJson(*m);
    // The same split as Serve's QoS classes, applied on every workload.
    Percentiles interactive;
    Percentiles batch;
    for (const sim::QueryOutcome& q : engine.outcomes()) {
      o.matches[q.id] = q.matches;
      (q.parts <= w.interactive_max_parts ? interactive : batch)
          .Add(q.ResponseMs());
    }
    o.interactive_completed = interactive.count();
    o.batch_completed = batch.count();
    if (interactive.count() == 0 || batch.count() == 0) {
      return Status::Internal("oracle completed no query of one class");
    }
    o.modeled_interactive_p95_ms = interactive.Percentile(95);
    o.modeled_interactive_p99_ms = interactive.Percentile(99);
    o.modeled_batch_p99_ms = batch.Percentile(99);
    if (o.matches.size() != trace.size()) {
      return Status::Internal("oracle completed " +
                              std::to_string(o.matches.size()) + " of " +
                              std::to_string(trace.size()) + " queries");
    }
    LIFERAFT_RETURN_IF_ERROR(WriteOracle(p.oracle, o));
  }
  return Status::OK();
}

/// Builds missing fixture files in a child process and waits for it. The
/// first fixture of a build removes the fixtures of every other build.
Status EnsureFixture(const Workload& w, const FixturePaths& p) {
  if (fs::exists(p.archive) && fs::exists(p.trace) && fs::exists(p.oracle)) {
    return Status::OK();
  }
  const fs::path root = fs::path(p.archive).parent_path();
  if (!fs::exists(root)) {
    std::error_code ec;
    std::vector<fs::path> stale;
    for (const fs::directory_entry& e :
         fs::directory_iterator(root.parent_path(), ec)) {
      if (e.path().filename().string().rfind("build-", 0) == 0) {
        stale.push_back(e.path());
      }
    }
    for (const fs::path& s : stale) fs::remove_all(s, ec);
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    Status st = BuildFixture(w, p);
    if (!st.ok()) {
      std::fprintf(stderr, "fixture %s: %s\n", w.name.c_str(),
                   st.ToString().c_str());
    }
    std::fflush(stderr);
    ::_exit(st.ok() ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::IOError("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("fixture generation failed for " + w.name);
  }
  return Status::OK();
}

/// Evicts the archive's pages from the kernel page cache.
bool DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  return ok;
}

// --------------------------------------------------------------- context --

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string FilesystemName(const std::string& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  const std::string hwm = ReadFirstMatch("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;
}

std::string ContextJson(const std::string& fixture_dir, bool direct_io,
                        bool cache_dropped) {
  struct utsname u {};
  const std::string kernel = ::uname(&u) == 0 ? u.release : "unknown";
  util::JsonObject o;
  o.Int("nproc", std::thread::hardware_concurrency());
  o.Str("cpu_model", ReadFirstMatch("/proc/cpuinfo", "model name"));
  o.Str("kernel", kernel);
  o.Str("fixture_fs", FilesystemName(fixture_dir));
  o.Bool("direct_io", direct_io);
  o.Bool("page_cache_dropped", cache_dropped);
  o.Str("build_type", BENCH_E2E_BUILD_TYPE);
  o.Str("git_sha", BENCH_E2E_GIT_SHA);
  return o.Done();
}

// ----------------------------------------------------------------- setup --

struct SetupTimes {
  double catalog_s = 0.0;  ///< FileStore::Open + Catalog::FromStore (index)
  double trace_s = 0.0;    ///< LoadTrace (cover recomputation)
  double engine_s = 0.0;
  double total() const { return catalog_s + trace_s + engine_s; }
};

/// One set-up system; with a Recorder, its store and scheduler are timed.
struct System {
  std::unique_ptr<storage::Catalog> catalog;
  std::vector<query::CrossMatchQuery> trace;
  std::unique_ptr<sim::SimEngine> engine;
  sched::LifeRaftScheduler* liferaft = nullptr;
  bool direct_io = false;
};

Result<System> SetUp(const Workload& w, const FixturePaths& p, Recorder* rec,
                     SetupTimes* t) {
  WallClock clock;
  System sys;
  const double t0 = clock.NowMs();
  LIFERAFT_ASSIGN_OR_RETURN(sys.catalog,
                            OpenCatalog(w, p.archive, rec, &sys.direct_io));
  const double t1 = clock.NowMs();
  LIFERAFT_ASSIGN_OR_RETURN(sys.trace, workload::LoadTrace(p.trace));
  const double t2 = clock.NowMs();
  std::unique_ptr<sched::LifeRaftScheduler> liferaft =
      MakeScheduler(*sys.catalog);
  sys.liferaft = liferaft.get();
  std::unique_ptr<sched::Scheduler> scheduler = std::move(liferaft);
  if (rec != nullptr) {
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), rec);
  }
  sys.engine = std::make_unique<sim::SimEngine>(
      sys.catalog.get(), std::move(scheduler),
      EngineConfigFor(w, w.serve ? sim::IoMode::kModeled : sim::IoMode::kReal,
                      p.spill));
  const double t3 = clock.NowMs();
  t->catalog_s = (t1 - t0) / 1000.0;
  t->trace_s = (t2 - t1) / 1000.0;
  t->engine_s = (t3 - t2) / 1000.0;
  return sys;
}

// ------------------------------------------------------------- measuring --

struct Iteration {
  bool traced = false;
  double wall_ms = 0.0;
  size_t queries = 0;
  size_t failed = 0;
  std::vector<double> responses_ms;
  sim::RunMetrics metrics;
};

/// One drain (or serve) through the engine, checked against the oracle.
Iteration RunOnce(System& sys, const Workload& w, const Oracle& oracle,
                  Recorder* rec) {
  Iteration it;
  it.traced = rec != nullptr && rec->enabled();
  it.queries = sys.trace.size();
  WallClock clock;
  const double t0 = clock.NowMs();
  Result<sim::RunMetrics> m = [&] {
    std::optional<Recorder::Scope> span;
    if (rec != nullptr) span.emplace(rec, Layer::kRun);
    return w.serve ? sys.engine->Serve(sys.trace, ServeConfigFor(w))
                   : sys.engine->Run(sys.trace, std::vector<TimeMs>(
                                                    sys.trace.size(), 0.0));
  }();
  it.wall_ms = clock.NowMs() - t0;
  if (!m.ok()) {
    std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                 m.status().ToString().c_str());
    it.failed = it.queries;
    return it;
  }
  it.metrics = std::move(*m);
  // The decorator hides the concrete scheduler from the engine's
  // dynamic_cast, which is how Serve reads alpha_final; restore the field
  // so traced and untraced reports compare byte for byte.
  if (rec != nullptr && w.serve) {
    it.metrics.alpha_final = sys.liferaft->alpha();
  }

  const std::vector<sim::QueryOutcome>& outcomes = sys.engine->outcomes();
  for (const sim::QueryOutcome& q : outcomes) {
    it.responses_ms.push_back(q.ResponseMs());
    auto want = oracle.matches.find(q.id);
    if (want == oracle.matches.end() || want->second != q.matches) {
      ++it.failed;
    }
  }
  if (outcomes.size() < it.queries) it.failed += it.queries - outcomes.size();
  if (w.serve && sim::RunMetricsJson(it.metrics) != oracle.metrics_json) {
    std::fprintf(stderr, "%s: serve report differs from the oracle's\n",
                 w.name.c_str());
    it.failed = it.queries;
  }
  return it;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

uint64_t ReaderBytes(const sim::RunMetrics& m) {
  uint64_t bytes = 0;
  for (const storage::AsyncVolumeStats& v : m.real_io) bytes += v.bytes;
  return bytes;
}

/// `detail` receives the response median, which is reported but not
/// gated: on serve-saturated the interactive and batch classes make the
/// response times bimodal, so the median jumps between the modes from one
/// seed to the next.
std::vector<Metric> EndToEndMetrics(const Workload& w,
                                    const std::vector<Iteration>& its,
                                    const Oracle& oracle,
                                    const std::vector<SetupTimes>& setups,
                                    std::vector<Metric>* detail) {
  // Every statistic is taken per iteration (each has >= 1000 queries, so
  // its p99 has ten samples beyond it) and then the median across
  // iterations, which a machine hiccup during one drain does not move.
  std::vector<double> qps;
  std::vector<double> mean;
  std::vector<double> p50;
  std::vector<double> p99;
  double bytes = 0.0;
  double queries = 0.0;
  for (const Iteration& it : its) {
    qps.push_back(static_cast<double>(it.queries) / (it.wall_ms / 1000.0));
    Percentiles responses;
    StreamingStats stats;
    for (double r : it.responses_ms) {
      responses.Add(r);
      stats.Add(r);
    }
    mean.push_back(stats.mean());
    p50.push_back(responses.Percentile(50));
    p99.push_back(responses.Percentile(99));
    // Real drains: bytes the async reader delivered. Serve (modeled): the
    // store's read ledger.
    bytes += static_cast<double>(w.serve ? it.metrics.store.bytes_read
                                         : ReaderBytes(it.metrics));
    queries += static_cast<double>(it.queries);
  }
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total());
  detail->push_back({"response_p50_ms", Median(p50), "ms"});
  detail->push_back({"response_samples", queries, "count"});
  return {
      {"throughput_qps", Median(qps), "1/s"},
      {"response_mean_ms", Median(mean), "ms"},
      {"response_p99_ms", Median(p99), "ms"},
      {"read_mb_per_query", bytes / kMiB / queries, "MB"},
      {"modeled_qps", oracle.modeled_qps, "1/s"},
      {"modeled_interactive_p95_ms", oracle.modeled_interactive_p95_ms, "ms"},
      {"modeled_batch_p99_ms", oracle.modeled_batch_p99_ms, "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  /// sched + owner wait + sync reads exceeded the traced run wall.
  bool children_exceed_wall = false;
};

LayerReport PerLayerMetrics(const std::vector<Iteration>& its,
                            const Recorder& rec,
                            const std::vector<SetupTimes>& setups) {
  double wall = 0.0;
  double queries = 0.0;
  double n = 0.0;
  std::vector<double> qps_on;
  std::vector<double> qps_off;
  uint64_t max_depth = 0;
  uint64_t io_failures = 0;
  uint64_t reads = 0;
  uint64_t scan_batches = 0;
  uint64_t issued = 0;
  uint64_t claims = 0;
  uint64_t steps = 0;
  uint64_t indexed = 0;
  uint64_t probes = 0;
  uint64_t matches = 0;
  uint64_t spilled = 0;
  uint64_t restored = 0;
  uint64_t peak_pending = 0;
  double hidden_ms = 0.0;
  for (const Iteration& it : its) {
    const double q = static_cast<double>(it.queries) / (it.wall_ms / 1000.0);
    (it.traced ? qps_on : qps_off).push_back(q);
    if (!it.traced) continue;
    const sim::RunMetrics& m = it.metrics;
    wall += it.wall_ms;
    queries += static_cast<double>(it.queries);
    n += 1.0;
    for (const storage::AsyncVolumeStats& v : m.real_io) {
      max_depth = std::max(max_depth, v.max_queue_depth);
      io_failures += v.failures;
    }
    for (const storage::VolumeIoStats& v : m.volumes) {
      reads += v.foreground_reads + v.prefetch_claims;
      issued += v.prefetch_issued;
      claims += v.prefetch_claims;
    }
    steps += m.evaluator.batches;
    scan_batches += m.evaluator.scan_batches;
    indexed += m.evaluator.indexed_batches;
    probes += m.evaluator.index_probes;
    matches += m.total_matches;
    spilled += m.spill.bytes_spilled;
    restored += m.spill.bytes_restored;
    peak_pending = std::max(peak_pending, m.peak_pending_objects);
    hidden_ms += m.prefetch_hidden_ms;
  }
  const LayerTotals t = rec.totals();
  const double pick = t.Ms(Layer::kPick);
  const double peek = t.Ms(Layer::kPeek);
  const double wait = t.Ms(Layer::kOwnerWait);
  const double sync = t.Ms(Layer::kSyncRead);
  const double service = t.Ms(Layer::kWorkerRead);
  const std::vector<double> lat = rec.completion_latencies();
  double lat_sum = 0.0;
  Percentiles lat_pct;
  for (double l : lat) {
    lat_sum += l;
    lat_pct.Add(l);
  }
  const double children = pick + peek + wait + sync;
  auto pct = [&](double ms) { return wall > 0.0 ? 100.0 * ms / wall : 0.0; };
  auto per_call = [&](Layer l) {
    return t.Calls(l) > 0 ? 1000.0 * t.Ms(l) / t.Calls(l) : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::vector<double> catalog_s;
  std::vector<double> trace_s;
  for (const SetupTimes& s : setups) {
    catalog_s.push_back(s.catalog_s);
    trace_s.push_back(s.trace_s);
  }
  const double off = Median(qps_off);

  LayerReport r;
  r.children_exceed_wall = children > wall * (1.0 + 1e-9);
  r.metrics = {
      {"sched.pick_pct", pct(pick), "%"},
      {"sched.peek_pct", pct(peek), "%"},
      {"sched.pick_us", per_call(Layer::kPick), "us"},
      {"sched.peek_us", per_call(Layer::kPeek), "us"},
      {"io.owner_wait_pct", pct(wait), "%"},
      {"io.queue_wait_pct", 100.0 * ratio(lat_sum - service, lat_sum), "%"},
      {"io.max_queue_depth", static_cast<double>(max_depth), "count"},
      {"io.failures", static_cast<double>(io_failures), "count"},
      {"storage.read_service_pct", pct(service), "%"},
      {"storage.sync_read_pct", pct(sync), "%"},
      {"storage.index_build_s", Median(catalog_s), "s"},
      {"cache.hit_rate", 100.0 * (1.0 - ratio(reads, scan_batches)), "%"},
      {"cache.prefetch_claim_ratio", 100.0 * ratio(claims, issued), "%"},
      {"cache.prefetch_unclaimed", ratio(issued - claims, n), "count"},
      {"exec.self_pct", pct(wall - children), "%"},
      {"exec.steps_per_query", ratio(steps, queries), "count"},
      {"join.scan_batches", ratio(scan_batches, n), "count"},
      {"join.indexed_batches", ratio(indexed, n), "count"},
      {"join.index_probes", ratio(probes, n), "count"},
      {"query.preprocess_s", Median(trace_s), "s"},
      {"query.spill_mb_written", ratio(spilled, n) / kMiB, "MB"},
      {"query.spill_mb_restored", ratio(restored, n) / kMiB, "MB"},
      {"query.peak_pending_objects", static_cast<double>(peak_pending),
       "count"},
      {"trace.overhead_pct", off > 0.0 ? 100.0 * (off - Median(qps_on)) / off
                                       : 0.0,
       "%"},
  };
  r.detail = {
      {"traced_wall_ms", wall, "ms"},
      {"traced_iterations", n, "count"},
      {"sched.pick_ms", pick, "ms"},
      {"sched.peek_ms", peek, "ms"},
      {"io.owner_wait_ms", wait, "ms"},
      {"io.queue_wait_ms", lat_sum - service, "ms"},
      {"io.reads", static_cast<double>(lat.size()), "count"},
      {"io.latency_p50_ms", lat_pct.Percentile(50), "ms"},
      {"io.latency_p99_ms", lat_pct.Percentile(99), "ms"},
      {"io.completion_failures", static_cast<double>(rec.completion_failures()),
       "count"},
      {"storage.read_service_ms", service, "ms"},
      {"storage.sync_read_ms", sync, "ms"},
      {"exec.self_ms", wall - children, "ms"},
      {"join.matches_per_query", ratio(matches, queries), "count"},
      {"exec.prefetch_hidden_ms_per_iteration", ratio(hidden_ms, n), "ms"},
      {"throughput_qps_traced", Median(qps_on), "1/s"},
      {"throughput_qps_untraced", off, "1/s"},
  };
  return r;
}

// ---------------------------------------------------------------- output --

std::string MetricsJson(const std::vector<Metric>& metrics) {
  util::JsonObject o;
  for (const Metric& m : metrics) {
    util::JsonObject v;
    v.Num("value", m.value);
    v.Str("unit", m.unit);
    o.Field(m.name, v.Done());
  }
  return o.Done();
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string fixture_dir = ".bench_build/fixtures";
  std::string out;
  std::string trace_json;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "[--seconds S] [--traced] [--fixture-dir DIR] [--out FILE] "
               "[--trace-json FILE]\n       bench_e2e --smoke "
               "[--fixture-dir DIR]\nworkloads: cold-drain hot-join "
               "spill-drain serve-saturated\n",
               msg);
  return 2;
}

/// Runs one workload; returns the process exit status.
int RunWorkload(const Options& opt) {
  std::optional<Workload> w = MakeWorkload(opt.workload, opt.seed, false);
  if (!w.has_value()) return Usage("unknown workload");
  Result<std::string> key = BuildKey();
  if (!key.ok()) {
    std::fprintf(stderr, "error: %s\n", key.status().ToString().c_str());
    return 1;
  }
  const FixturePaths paths = PathsFor(opt.fixture_dir, *key, *w, opt.seed);
  Status st = EnsureFixture(*w, paths);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<Oracle> oracle = ReadOracle(paths.oracle);
  if (!oracle.ok()) {
    std::fprintf(stderr, "error: %s\n", oracle.status().ToString().c_str());
    return 1;
  }

  // With --traced, `sys` is decorated and `plain` is the same system without
  // decorators; set-up is timed on `sys` either way.
  std::unique_ptr<Recorder> rec;
  if (opt.traced) rec = std::make_unique<Recorder>();
  std::vector<SetupTimes> setups;
  bool cache_dropped = false;
  auto set_up = [&](Recorder* r, SetupTimes* t) -> Result<System> {
    if (w->direct_io) cache_dropped = DropPageCache(paths.archive);
    return SetUp(*w, paths, r, t);
  };
  std::optional<System> sys;
  std::optional<System> plain;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();  // release the previous catalog before building the next
    SetupTimes t;
    Result<System> built = set_up(rec.get(), &t);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return 1;
    }
    sys.emplace(std::move(*built));
    setups.push_back(t);
  }
  if (rec != nullptr) {
    SetupTimes untimed;
    Result<System> built = set_up(nullptr, &untimed);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return 1;
    }
    plain.emplace(std::move(*built));
  }

  // Untimed warm-up iterations (fill the page cache where reads are
  // buffered, and fault in the allocator's arenas), checked like the rest.
  // The recorder is still disabled, so they leave no spans.
  Iteration warm = RunOnce(*sys, *w, *oracle, rec.get());
  size_t attempted = warm.queries;
  size_t failed = warm.failed;
  if (plain.has_value()) {
    warm = RunOnce(*plain, *w, *oracle, nullptr);
    attempted += warm.queries;
    failed += warm.failed;
  }

  std::vector<Iteration> its;
  WallClock clock;
  const double start = clock.NowMs();
  const double budget_ms = opt.seconds * 1000.0;
  for (uint32_t i = 1;; ++i) {
    // Traced iterations of the decorated system alternate with iterations
    // of the plain one, so drift in the machine affects both halves alike
    // and their throughput ratio is the whole cost of tracing.
    const bool traced = rec != nullptr && i % 2 == 1;
    if (traced) {
      rec->set_iteration(i);
      rec->set_enabled(true);
    }
    its.push_back(rec == nullptr || traced
                      ? RunOnce(*sys, *w, *oracle, rec.get())
                      : RunOnce(*plain, *w, *oracle, nullptr));
    if (traced) rec->set_enabled(false);
    attempted += its.back().queries;
    failed += its.back().failed;
    const bool enough = rec == nullptr || its.size() >= 2;
    if (enough && clock.NowMs() - start >= budget_ms) break;
  }

  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  bool attribution_ok = true;
  if (rec != nullptr) {
    LayerReport r = PerLayerMetrics(its, *rec, setups);
    metrics = std::move(r.metrics);
    detail = std::move(r.detail);
    attribution_ok = !r.children_exceed_wall;
    if (!opt.trace_json.empty()) {
      Status wrote = rec->WriteChromeTrace(opt.trace_json);
      if (!wrote.ok()) {
        std::fprintf(stderr, "error: %s\n", wrote.ToString().c_str());
        return 1;
      }
    }
  } else {
    metrics = EndToEndMetrics(*w, its, *oracle, setups, &detail);
  }
  std::vector<double> wall;
  for (const Iteration& it : its) wall.push_back(it.wall_ms);
  detail.push_back({"iterations", static_cast<double>(its.size()), "count"});
  detail.push_back({"queries_per_iteration",
                    static_cast<double>(sys->trace.size()), "count"});
  detail.push_back({"iteration_wall_ms_median", Median(wall), "ms"});
  detail.push_back({"modeled_p50_ms", oracle->modeled_p50_ms, "ms"});
  detail.push_back({"modeled_p99_ms", oracle->modeled_p99_ms, "ms"});
  detail.push_back({"modeled_interactive_p99_ms",
                    oracle->modeled_interactive_p99_ms, "ms"});
  detail.push_back({"modeled_interactive_completed",
                    static_cast<double>(oracle->interactive_completed),
                    "count"});
  detail.push_back({"modeled_batch_completed",
                    static_cast<double>(oracle->batch_completed), "count"});

  const bool correct = failed == 0 && attribution_ok;
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  PrintMetrics(metrics);
  std::printf("error_rate %.10g ratio\n", error_rate);
  if (!attribution_ok) {
    std::fprintf(stderr, "error: traced child spans exceed run wall\n");
  }

  if (!opt.out.empty()) {
    util::JsonObject o;
    o.Str("workload", w->name);
    o.Int("seed", opt.seed);
    o.Bool("traced", opt.traced);
    o.Num("seconds", opt.seconds);
    o.Bool("correct", correct);
    o.Int("attempted", attempted);
    o.Int("failed", failed);
    o.Num("error_rate", error_rate);
    o.Field("context",
            ContextJson(opt.fixture_dir, sys->direct_io, cache_dropped));
    o.Field("metrics", MetricsJson(metrics));
    o.Field("detail", MetricsJson(detail));
    std::ofstream out(opt.out);
    out << o.Done() << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}

/// Every workload at toy size, one untraced and one traced iteration each,
/// checked against the oracle. No metric is reported.
int RunSmoke(const Options& opt) {
  Result<std::string> key = BuildKey();
  if (!key.ok()) {
    std::fprintf(stderr, "error: %s\n", key.status().ToString().c_str());
    return 1;
  }
  bool all_ok = true;
  for (const char* name : kWorkloadNames) {
    WallClock clock;
    const double t0 = clock.NowMs();
    const Workload w = *MakeWorkload(name, opt.seed, /*smoke=*/true);
    const FixturePaths paths = PathsFor(opt.fixture_dir, *key, w, opt.seed);
    size_t queries = 0;
    size_t failed = 0;
    Status st = EnsureFixture(w, paths);
    Result<Oracle> oracle = st.ok() ? ReadOracle(paths.oracle)
                                    : Result<Oracle>(st);
    Recorder rec;
    SetupTimes t;
    Result<System> sys =
        oracle.ok() ? SetUp(w, paths, &rec, &t) : Result<System>(oracle.status());
    if (sys.ok()) {
      for (bool traced : {false, true}) {
        rec.set_enabled(traced);
        Iteration it = RunOnce(*sys, w, *oracle, &rec);
        queries += it.queries;
        failed += it.failed;
      }
    } else {
      std::fprintf(stderr, "%s: %s\n", name, sys.status().ToString().c_str());
      failed = 1;
    }
    const bool ok = failed == 0 && queries > 0;
    all_ok = all_ok && ok;
    std::printf("smoke %-16s %s queries=%zu failed=%zu seconds=%.2f\n", name,
                ok ? "ok" : "FAIL", queries, failed,
                (clock.NowMs() - t0) / 1000.0);
  }
  return all_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value("--workload");
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value("--seconds"), nullptr);
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--fixture-dir") {
      opt.fixture_dir = value("--fixture-dir");
    } else if (a == "--out") {
      opt.out = value("--out");
    } else if (a == "--trace-json") {
      opt.trace_json = value("--trace-json");
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  Logger::SetLevel(LogLevel::kWarn);
  if (opt.smoke) return RunSmoke(opt);
  if (opt.workload.empty()) return Usage("--workload is required");
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");
  return RunWorkload(opt);
}

}  // namespace
}  // namespace liferaft::bench_e2e

int main(int argc, char** argv) {
  return liferaft::bench_e2e::Main(argc, argv);
}
