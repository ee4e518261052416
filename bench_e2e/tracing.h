// Span recording for bench_e2e's traced runs: decorators that time the
// calls the engine makes into three public interfaces — the scheduler, the
// bucket store, and the store's asynchronous reader — and keep the spans in
// memory until the run ends (Chrome-trace JSON on request).
//
// Every decorator forwards to the object it wraps and changes no result;
// recording happens only while the Recorder is enabled, so warm-up
// iterations of a decorated engine leave no spans.

#ifndef LIFERAFT_BENCH_E2E_TRACING_H_
#define LIFERAFT_BENCH_E2E_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_store.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::bench_e2e {

/// What a span measured. kRun is one whole drain or serve; the others are
/// the calls made during it.
enum class Layer : uint8_t {
  kRun,
  kPick,        ///< Scheduler::PickBucket
  kPeek,        ///< Scheduler::PeekNextBuckets / PeekNextBucketsCovering
  kOwnerWait,   ///< AsyncReader::Wait / Drain on the engine's thread
  kSyncRead,    ///< a store read executed on the engine's thread
  kWorkerRead,  ///< a store read executed on an I/O worker thread
  kNumLayers,
};

const char* LayerName(Layer layer);

/// Per-layer totals of the spans recorded while enabled.
struct LayerTotals {
  std::array<double, static_cast<size_t>(Layer::kNumLayers)> ms{};
  std::array<uint64_t, static_cast<size_t>(Layer::kNumLayers)> calls{};

  double Ms(Layer l) const { return ms[static_cast<size_t>(l)]; }
  uint64_t Calls(Layer l) const { return calls[static_cast<size_t>(l)]; }
};

/// Thread-safe in-memory span log. The thread that constructs it is the
/// engine ("owner") thread; store reads are attributed by calling thread.
class Recorder {
 public:
  Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Tags later spans with the drain/serve they belong to.
  void set_iteration(uint32_t iteration) {
    iteration_.store(iteration, std::memory_order_relaxed);
  }

  TimeMs NowMs() const { return clock_.NowMs(); }
  bool OnOwnerThread() const { return std::this_thread::get_id() == owner_; }

  /// Records [start_ms, end_ms) for `layer` if enabled.
  void Record(Layer layer, TimeMs start_ms, TimeMs end_ms);
  /// Records one read completion delivered by the asynchronous reader.
  void RecordCompletion(const storage::AsyncReadCompletion& c);

  LayerTotals totals() const;
  /// Submit-to-completion latencies of every recorded completion.
  std::vector<double> completion_latencies() const;
  uint64_t completion_failures() const;

  /// Writes the retained spans as Chrome-trace JSON ("X" events, times in
  /// microseconds); load in chrome://tracing or ui.perfetto.dev.
  Status WriteChromeTrace(const std::string& path) const;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Recorder* rec, Layer layer)
        : rec_(rec->enabled() ? rec : nullptr),
          layer_(layer),
          start_ms_(rec_ != nullptr ? rec_->NowMs() : 0.0) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->Record(layer_, start_ms_, rec_->NowMs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;
    Layer layer_;
    TimeMs start_ms_;
  };

 private:
  struct Span {
    Layer layer;
    uint32_t tid;
    uint32_t iteration;
    double start_us;
    double dur_us;
  };
  /// Spans beyond this are counted in the totals but not retained, which
  /// bounds the trace file and the recorder's memory.
  static constexpr size_t kMaxSpans = 200'000;

  uint32_t ThreadIndexLocked(std::thread::id id);

  WallClock clock_;
  const std::thread::id owner_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> iteration_{0};

  mutable std::mutex mu_;
  LayerTotals totals_;                      // guarded by mu_
  std::vector<Span> spans_;                 // guarded by mu_
  std::vector<std::thread::id> threads_;    // guarded by mu_
  std::vector<double> latencies_;           // guarded by mu_
  uint64_t failures_ = 0;                   // guarded by mu_
};

/// Scheduler decorator timing PickBucket and both peek forms. Forwards
/// AttachTopology so cost-based ranking sees the engine's topology.
class TimedScheduler : public sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sched::Scheduler> inner, Recorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  void AttachTopology(const storage::StorageTopology* topology) override {
    inner_->AttachTopology(topology);
  }
  std::optional<storage::BucketIndex> PickBucket(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached) override;
  std::vector<storage::BucketIndex> PeekNextBuckets(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached, size_t k) const override;
  std::vector<storage::BucketIndex> PeekNextBucketsCovering(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached,
      const std::function<uint32_t(storage::BucketIndex)>& volume_of,
      const std::vector<size_t>& want_per_volume) const override;

 private:
  std::unique_ptr<sched::Scheduler> inner_;
  Recorder* rec_;
};

/// BucketStore decorator timing every read. stats() is not virtual, so the
/// decorator keeps its own counters (RecordRead) exactly as a store would;
/// the engine reads and resets them through the catalog's store pointer.
class TimedStore : public storage::BucketStore {
 public:
  TimedStore(std::unique_ptr<storage::BucketStore> inner, Recorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  size_t num_buckets() const override { return inner_->num_buckets(); }
  const storage::BucketMap& bucket_map() const override {
    return inner_->bucket_map();
  }
  size_t BucketObjectCount(storage::BucketIndex index) const override {
    return inner_->BucketObjectCount(index);
  }
  uint64_t EncodedBucketBytes(storage::BucketIndex index) const override {
    return inner_->EncodedBucketBytes(index);
  }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }
  Result<std::shared_ptr<const storage::Bucket>> ReadBucket(
      storage::BucketIndex index) override;
  Result<std::shared_ptr<const storage::Bucket>> ReadBucketForPrefetch(
      storage::BucketIndex index) override;
  Result<std::shared_ptr<const storage::Bucket>> ReadBucketForPrefetchScratch(
      storage::BucketIndex index, util::Arena* scratch) override;
  /// The default queued reader over this decorator (so worker reads are
  /// timed too), wrapped in a TimedReader.
  std::unique_ptr<storage::AsyncReader> NewAsyncReader(
      const storage::StorageTopology* topology) override;

 private:
  Layer ReadLayer() const {
    return rec_->OnOwnerThread() ? Layer::kSyncRead : Layer::kWorkerRead;
  }

  std::unique_ptr<storage::BucketStore> inner_;
  Recorder* rec_;
};

/// AsyncReader decorator: times the owner's blocking Wait/Drain and records
/// every completion's latency on delivery.
class TimedReader : public storage::AsyncReader {
 public:
  TimedReader(std::unique_ptr<storage::AsyncReader> inner, Recorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  uint64_t SubmitRead(storage::BucketIndex index,
                      storage::AsyncReadCallback done) override;
  size_t Poll() override { return inner_->Poll(); }
  size_t Wait() override;
  void Drain() override;
  size_t in_flight() const override { return inner_->in_flight(); }
  std::vector<storage::AsyncVolumeStats> VolumeStats() const override {
    return inner_->VolumeStats();
  }

 private:
  std::unique_ptr<storage::AsyncReader> inner_;
  Recorder* rec_;
};

}  // namespace liferaft::bench_e2e

#endif  // LIFERAFT_BENCH_E2E_TRACING_H_
