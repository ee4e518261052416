#include "storage/async_io.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "storage/bucket_store.h"
#include "storage/topology.h"
#include "util/clock.h"

namespace liferaft::storage {
namespace {

/// Percentile over a scratch copy of `samples` (nearest-rank).
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

class QueuedAsyncReader : public AsyncReader {
 public:
  QueuedAsyncReader(BucketStore* store, const StorageTopology* topology)
      : store_(store), topology_(topology) {
    const size_t volumes =
        topology_ != nullptr ? topology_->num_volumes() : 1;
    queues_.reserve(volumes);
    for (size_t v = 0; v < volumes; ++v) {
      queues_.push_back(std::make_unique<VolumeQueue>());
    }
    stats_.resize(volumes);
    latency_samples_.resize(volumes);
    // Workers start after the queue vector is fully built: a worker only
    // touches its own queue and the shared completion queue.
    for (size_t v = 0; v < volumes; ++v) {
      queues_[v]->worker =
          std::thread([this, v] { WorkerLoop(static_cast<uint32_t>(v)); });
    }
  }

  ~QueuedAsyncReader() override {
    for (auto& q : queues_) {
      {
        std::lock_guard<std::mutex> lock(q->mu);
        q->stop = true;
      }
      q->cv.notify_all();
    }
    for (auto& q : queues_) q->worker.join();
    // Undelivered completions (and any requests the stop flag discarded)
    // die here with their buckets and callbacks — nothing escapes.
  }

  uint64_t SubmitRead(BucketIndex index, AsyncReadCallback done) override {
    const uint32_t volume =
        topology_ != nullptr
            ? topology_->VolumeOf(index) % static_cast<uint32_t>(queues_.size())
            : 0;
    Request req;
    req.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
    req.index = index;
    req.volume = volume;
    req.done = std::move(done);
    req.submit_ms = clock_.NowMs();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    VolumeQueue& q = *queues_[volume];
    const uint64_t ticket = req.ticket;
    {
      std::lock_guard<std::mutex> lock(q.mu);
      q.pending.push_back(std::move(req));
      const uint64_t depth = q.pending.size();
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_[volume].max_queue_depth =
          std::max(stats_[volume].max_queue_depth, depth);
    }
    q.cv.notify_one();
    return ticket;
  }

  size_t Poll() override { return Deliver(/*block=*/false); }

  size_t Wait() override { return Deliver(/*block=*/true); }

  void Drain() override {
    while (in_flight() > 0) Wait();
  }

  size_t in_flight() const override {
    return in_flight_.load(std::memory_order_relaxed);
  }

  std::vector<AsyncVolumeStats> VolumeStats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    std::vector<AsyncVolumeStats> out = stats_;
    for (size_t v = 0; v < out.size(); ++v) {
      out[v].p50_latency_ms = Percentile(latency_samples_[v], 0.50);
      out[v].p99_latency_ms = Percentile(latency_samples_[v], 0.99);
    }
    return out;
  }

 private:
  struct Request {
    uint64_t ticket = 0;
    BucketIndex index = 0;
    uint32_t volume = 0;
    AsyncReadCallback done;
    double submit_ms = 0.0;
  };

  struct Delivered {
    AsyncReadCompletion completion;
    AsyncReadCallback done;
  };

  struct VolumeQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Request> pending;  // guarded by mu
    bool stop = false;            // guarded by mu
    std::thread worker;
  };

  void WorkerLoop(uint32_t volume) {
    VolumeQueue& q = *queues_[volume];
    for (;;) {
      Request req;
      {
        std::unique_lock<std::mutex> lock(q.mu);
        q.cv.wait(lock, [&] { return q.stop || !q.pending.empty(); });
        if (q.stop) return;  // pending requests are discarded on shutdown
        req = std::move(q.pending.front());
        q.pending.pop_front();
      }
      Delivered d;
      d.done = std::move(req.done);
      d.completion.ticket = req.ticket;
      d.completion.index = req.index;
      d.completion.volume = volume;
      auto bucket = store_->ReadBucketForPrefetch(req.index);
      d.completion.latency_ms = clock_.NowMs() - req.submit_ms;
      if (bucket.ok()) {
        d.completion.bucket = std::move(bucket).value();
        d.completion.bytes = store_->EncodedBucketBytes(req.index);
        if (d.completion.bytes == 0) {
          d.completion.bytes = d.completion.bucket->EstimatedBytes();
        }
      } else {
        d.completion.status = bucket.status();
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        AsyncVolumeStats& s = stats_[volume];
        s.reads += 1;
        s.bytes += d.completion.bytes;
        if (!d.completion.status.ok()) {
          s.failures += 1;
          if (d.completion.status.code() == StatusCode::kCorruption) {
            s.checksum_failures += 1;
          }
        }
        s.total_latency_ms += d.completion.latency_ms;
        latency_samples_[volume].push_back(d.completion.latency_ms);
      }
      {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.push_back(std::move(d));
      }
      done_cv_.notify_all();
    }
  }

  size_t Deliver(bool block) {
    std::deque<Delivered> ready;
    {
      std::unique_lock<std::mutex> lock(done_mu_);
      if (block) {
        done_cv_.wait(lock, [&] {
          return !done_.empty() ||
                 in_flight_.load(std::memory_order_relaxed) == 0;
        });
      }
      ready.swap(done_);
    }
    // Callbacks run outside every lock so they may SubmitRead reentrantly.
    size_t delivered = 0;
    for (Delivered& d : ready) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      ++delivered;
      if (d.done) d.done(d.completion);
    }
    return delivered;
  }

  BucketStore* store_;
  const StorageTopology* topology_;
  WallClock clock_;
  std::vector<std::unique_ptr<VolumeQueue>> queues_;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<size_t> in_flight_{0};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<Delivered> done_;  // guarded by done_mu_

  mutable std::mutex stats_mu_;
  std::vector<AsyncVolumeStats> stats_;            // guarded by stats_mu_
  std::vector<std::vector<double>> latency_samples_;  // guarded by stats_mu_
};

}  // namespace

std::unique_ptr<AsyncReader> MakeQueuedAsyncReader(
    BucketStore* store, const StorageTopology* topology) {
  return std::make_unique<QueuedAsyncReader>(store, topology);
}

// Out of line here so bucket_store.h needs only a forward declaration.
std::unique_ptr<AsyncReader> BucketStore::NewAsyncReader(
    const StorageTopology* topology) {
  return MakeQueuedAsyncReader(this, topology);
}

}  // namespace liferaft::storage
