#include "tracing.h"

#include <algorithm>
#include <cstdio>

namespace liferaft::bench_e2e {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "run";
    case Layer::kPick:
      return "sched.pick";
    case Layer::kPeek:
      return "sched.peek";
    case Layer::kOwnerWait:
      return "io.owner_wait";
    case Layer::kSyncRead:
      return "storage.sync_read";
    case Layer::kWorkerRead:
      return "storage.read_service";
    case Layer::kNumLayers:
      break;
  }
  return "?";
}

Recorder::Recorder() : owner_(std::this_thread::get_id()) {
  threads_.push_back(owner_);
}

uint32_t Recorder::ThreadIndexLocked(std::thread::id id) {
  auto it = std::find(threads_.begin(), threads_.end(), id);
  if (it != threads_.end()) {
    return static_cast<uint32_t>(it - threads_.begin());
  }
  threads_.push_back(id);
  return static_cast<uint32_t>(threads_.size() - 1);
}

void Recorder::Record(Layer layer, TimeMs start_ms, TimeMs end_ms) {
  const size_t l = static_cast<size_t>(layer);
  std::lock_guard<std::mutex> lock(mu_);
  totals_.ms[l] += end_ms - start_ms;
  totals_.calls[l] += 1;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(Span{layer, ThreadIndexLocked(std::this_thread::get_id()),
                          iteration_.load(std::memory_order_relaxed),
                          start_ms * 1000.0, (end_ms - start_ms) * 1000.0});
  }
}

void Recorder::RecordCompletion(const storage::AsyncReadCompletion& c) {
  std::lock_guard<std::mutex> lock(mu_);
  latencies_.push_back(c.latency_ms);
  if (!c.status.ok()) ++failures_;
}

LayerTotals Recorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<double> Recorder::completion_latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_;
}

uint64_t Recorder::completion_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

Status Recorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t t = 0; t < threads_.size(); ++t) {
    std::fprintf(f,
                 "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s%zu\"}},\n",
                 t, t == 0 ? "engine" : "io-worker-", t);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Every span carries the drain/serve it belongs to: the "run" span with
    // the same iteration is its parent.
    std::fprintf(f,
                 "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"iteration\": %u}}%s\n",
                 LayerName(s.layer), s.tid, s.start_us, s.dur_us, s.iteration,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::optional<storage::BucketIndex> TimedScheduler::PickBucket(
    const query::WorkloadManager& manager, TimeMs now,
    const sched::CacheProbe& cached) {
  Recorder::Scope span(rec_, Layer::kPick);
  return inner_->PickBucket(manager, now, cached);
}

std::vector<storage::BucketIndex> TimedScheduler::PeekNextBuckets(
    const query::WorkloadManager& manager, TimeMs now,
    const sched::CacheProbe& cached, size_t k) const {
  Recorder::Scope span(rec_, Layer::kPeek);
  return inner_->PeekNextBuckets(manager, now, cached, k);
}

std::vector<storage::BucketIndex> TimedScheduler::PeekNextBucketsCovering(
    const query::WorkloadManager& manager, TimeMs now,
    const sched::CacheProbe& cached,
    const std::function<uint32_t(storage::BucketIndex)>& volume_of,
    const std::vector<size_t>& want_per_volume) const {
  Recorder::Scope span(rec_, Layer::kPeek);
  return inner_->PeekNextBucketsCovering(manager, now, cached, volume_of,
                                         want_per_volume);
}

Result<std::shared_ptr<const storage::Bucket>> TimedStore::ReadBucket(
    storage::BucketIndex index) {
  Result<std::shared_ptr<const storage::Bucket>> bucket = [&] {
    Recorder::Scope span(rec_, ReadLayer());
    return inner_->ReadBucket(index);
  }();
  if (bucket.ok()) RecordRead(**bucket);
  return bucket;
}

Result<std::shared_ptr<const storage::Bucket>>
TimedStore::ReadBucketForPrefetch(storage::BucketIndex index) {
  Recorder::Scope span(rec_, ReadLayer());
  return inner_->ReadBucketForPrefetch(index);
}

Result<std::shared_ptr<const storage::Bucket>>
TimedStore::ReadBucketForPrefetchScratch(storage::BucketIndex index,
                                         util::Arena* scratch) {
  Recorder::Scope span(rec_, ReadLayer());
  return inner_->ReadBucketForPrefetchScratch(index, scratch);
}

std::unique_ptr<storage::AsyncReader> TimedStore::NewAsyncReader(
    const storage::StorageTopology* topology) {
  return std::make_unique<TimedReader>(
      storage::MakeQueuedAsyncReader(this, topology), rec_);
}

uint64_t TimedReader::SubmitRead(storage::BucketIndex index,
                                 storage::AsyncReadCallback done) {
  Recorder* rec = rec_;
  return inner_->SubmitRead(
      index, [rec, done = std::move(done)](
                 const storage::AsyncReadCompletion& c) {
        if (rec->enabled()) rec->RecordCompletion(c);
        if (done) done(c);
      });
}

size_t TimedReader::Wait() {
  Recorder::Scope span(rec_, Layer::kOwnerWait);
  return inner_->Wait();
}

void TimedReader::Drain() {
  Recorder::Scope span(rec_, Layer::kOwnerWait);
  inner_->Drain();
}

}  // namespace liferaft::bench_e2e
