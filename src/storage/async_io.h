// Asynchronous bucket reads: per-volume submission queues feeding dedicated
// I/O worker threads, with completions delivered on the caller's thread.
//
//   owner thread                      volume 0 worker      volume 1 worker
//   ------------                      ---------------      ---------------
//   SubmitRead(b, cb) ──┬─ enqueue ─► [ b7 b3 ]
//   SubmitRead(b', cb') ┴─ enqueue ──────────────────────► [ b4 ]
//        ...                          pread+crc+decode     pread+crc+decode
//   Poll()/Wait() ◄── completion queue ◄──┴──────────────────┘
//     └─ invokes cb(completion) in completion order, owner thread only
//
// The queue per volume is the arm model made physical: one outstanding
// read per arm at a time (the worker), requests behind it queueing exactly
// like the virtual clock's per-arm `arm_free_ms`. Reads themselves are
// positional pread(2) calls, so workers never contend on store state —
// the serialization point is the submission queue, not a lock around I/O.
//
// Completion callbacks NEVER run on a worker thread: workers only move
// finished reads to the completion queue; Poll()/Wait() invoke callbacks
// on the calling (owner) thread. The owner can therefore touch caches and
// accounting from callbacks without any locking. Destroying the reader
// joins all workers; submitted-but-undelivered work is discarded (buckets
// freed, callbacks dropped) — shutdown with reads in flight leaks nothing.

#ifndef LIFERAFT_STORAGE_ASYNC_IO_H_
#define LIFERAFT_STORAGE_ASYNC_IO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "storage/bucket.h"
#include "util/status.h"

namespace liferaft::storage {

class BucketStore;
class StorageTopology;

/// One finished asynchronous read, delivered via Poll()/Wait().
struct AsyncReadCompletion {
  /// Ticket returned by the SubmitRead that started this read.
  uint64_t ticket = 0;
  BucketIndex index = 0;
  /// Volume (submission queue) the read ran on.
  uint32_t volume = 0;
  /// OK, or the read's failure (I/O error, checksum mismatch, fault
  /// injection); `bucket` is null iff !status.ok().
  Status status;
  std::shared_ptr<const Bucket> bucket;
  /// Measured wall-clock submit -> completion time. Includes queue wait —
  /// that is the point: it is the latency the arm's backlog produced.
  double latency_ms = 0.0;
  /// Encoded bytes moved for this read (0 on failure).
  uint64_t bytes = 0;
};

/// Invoked by Poll()/Wait() on the calling thread, once per completion.
using AsyncReadCallback = std::function<void(const AsyncReadCompletion&)>;

/// Wall-clock telemetry of one volume's submission queue.
struct AsyncVolumeStats {
  uint64_t reads = 0;             ///< completed reads (incl. failures)
  uint64_t bytes = 0;             ///< encoded bytes of successful reads
  uint64_t failures = 0;          ///< reads that returned a non-OK Status
  uint64_t checksum_failures = 0; ///< the kCorruption subset of failures
  uint64_t max_queue_depth = 0;   ///< high-water mark of queued requests
  double total_latency_ms = 0.0;  ///< sum of completion latencies
  double p50_latency_ms = 0.0;    ///< median completion latency
  double p99_latency_ms = 0.0;    ///< tail completion latency
};

/// Asynchronous read session over a BucketStore. Obtain via
/// BucketStore::NewAsyncReader. Submit from one owner thread; Poll/Wait
/// from that same thread (the completion queue itself is thread-safe, but
/// callback delivery order is only meaningful single-threaded).
class AsyncReader {
 public:
  virtual ~AsyncReader() = default;

  /// Enqueues a read of bucket `index` on its volume's submission queue
  /// and returns a ticket (monotonically increasing from 1). `done` runs
  /// on the Poll()/Wait() caller's thread when the read completes.
  virtual uint64_t SubmitRead(BucketIndex index, AsyncReadCallback done) = 0;

  /// Delivers every completion that is ready right now (invoking its
  /// callback); never blocks. Returns the number delivered.
  virtual size_t Poll() = 0;

  /// Blocks until at least one completion is ready, then delivers all
  /// ready completions. Returns immediately with 0 when nothing is in
  /// flight.
  virtual size_t Wait() = 0;

  /// Wait() in a loop until every submitted read has been delivered.
  virtual void Drain() = 0;

  /// Reads submitted but not yet delivered through Poll()/Wait().
  virtual size_t in_flight() const = 0;

  /// Snapshot of per-volume queue telemetry (percentiles computed over
  /// all completed reads so far).
  virtual std::vector<AsyncVolumeStats> VolumeStats() const = 0;
};

/// The default AsyncReader: one worker thread + FIFO submission queue per
/// volume of `topology` (one queue total when null), reads served through
/// store->ReadBucketForPrefetch on the worker. Requires
/// store->SupportsConcurrentReads(). The store and topology are borrowed
/// and must outlive the reader.
std::unique_ptr<AsyncReader> MakeQueuedAsyncReader(
    BucketStore* store, const StorageTopology* topology);

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_ASYNC_IO_H_
