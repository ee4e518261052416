// The Workload Manager (paper §4): per-bucket workload queues holding the
// interleaved sub-queries of all pending queries, plus the bookkeeping the
// scheduler's metric needs — queue sizes (contention) and oldest-request
// ages (starvation resistance) — and the mapping from queries to their
// outstanding sub-queries (a query completes when its last sub-query is
// served).

#ifndef LIFERAFT_QUERY_WORKLOAD_H_
#define LIFERAFT_QUERY_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "query/preprocessor.h"
#include "query/query.h"
#include "query/spill.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::query {

/// One pending sub-query in a bucket's workload queue.
struct WorkloadEntry {
  QueryId query_id = 0;
  TimeMs arrival_ms = 0.0;
  Predicate predicate;
  std::vector<QueryObject> objects;
};

/// The workload queue of one bucket: sub-queries from multiple queries
/// interleaved, served together in a single pass.
class WorkloadQueue {
 public:
  explicit WorkloadQueue(storage::BucketIndex bucket) : bucket_(bucket) {}

  storage::BucketIndex bucket() const { return bucket_; }
  const std::deque<WorkloadEntry>& entries() const { return entries_; }
  /// True if no work is pending at all (resident or spilled).
  bool empty() const { return total_objects_ == 0; }

  /// Total pending cross-match objects (the |W_i| of Eq. 1), resident or
  /// spilled — scheduling metadata never leaves memory.
  uint64_t total_objects() const { return total_objects_; }

  /// Objects whose entry payloads are currently in memory.
  uint64_t resident_objects() const { return resident_objects_; }

  /// Arrival time of the oldest pending sub-query. Only meaningful when
  /// non-empty.
  TimeMs oldest_arrival_ms() const { return oldest_arrival_ms_; }

  /// Age of the oldest request at `now` (the A(i) of Eq. 2); 0 if empty.
  TimeMs AgeMs(TimeMs now) const {
    return empty() ? 0.0 : now - oldest_arrival_ms_;
  }

  void Push(WorkloadEntry entry);

  /// Removes and returns the resident entries (the batch the scheduler
  /// dispatches) and zeroes all counters; the caller is responsible for
  /// restoring any spilled segments of this bucket alongside.
  std::vector<WorkloadEntry> TakeAll();

  /// Removes and returns the resident entries for spilling to disk.
  /// total_objects() and the age metadata are unchanged — the work is
  /// still pending, just not resident.
  std::vector<WorkloadEntry> ExtractResidents();

 private:
  storage::BucketIndex bucket_;
  std::deque<WorkloadEntry> entries_;
  uint64_t total_objects_ = 0;
  uint64_t resident_objects_ = 0;
  TimeMs oldest_arrival_ms_ = 0.0;
};

/// Spill statistics (see EnableSpill).
struct SpillStats {
  uint64_t segments_spilled = 0;
  uint64_t segments_restored = 0;
  uint64_t bytes_spilled = 0;
  uint64_t bytes_restored = 0;
};

/// Tracks every bucket's queue and every query's outstanding sub-query
/// count.
class WorkloadManager {
 public:
  explicit WorkloadManager(size_t num_buckets);

  /// Enables workload overflow to disk (paper §6 future work): whenever
  /// resident workload objects exceed `memory_budget_objects`, the largest
  /// resident queues are spilled to `path` until the budget holds; spilled
  /// segments are restored transparently when their bucket is dispatched.
  /// Queue metadata (sizes, ages) always stays resident, so scheduling
  /// decisions are unaffected by residency.
  Status EnableSpill(const std::string& path,
                     uint64_t memory_budget_objects);

  /// Objects whose payloads are resident (<= budget when spill enabled).
  uint64_t resident_objects() const { return resident_objects_; }

  const SpillStats& spill_stats() const { return spill_stats_; }

  /// Admits a pre-processed query: installs one WorkloadEntry per bucket
  /// workload, moving each workload's objects into its entry. Returns the
  /// number of buckets the query joined. InvalidArgument if the query has
  /// no workloads or is already pending; nothing is moved then.
  Result<size_t> Admit(const CrossMatchQuery& query,
                       std::vector<BucketWorkload> workloads);

  /// Queue of bucket `b` (always valid; may be empty).
  const WorkloadQueue& queue(storage::BucketIndex b) const {
    return queues_[b];
  }

  /// Buckets with non-empty queues, ascending.
  const std::set<storage::BucketIndex>& active_buckets() const {
    return active_;
  }

  /// Dispatches bucket `b`'s whole queue (restoring any spilled segments).
  /// Decrements the owning queries' outstanding counts; every query that
  /// reaches zero is appended to `completed`. `restored_bytes`, if
  /// non-null, receives the spill-file bytes read for I/O accounting.
  /// A failed spill restore returns its IOError or Corruption, naming the
  /// bucket, and leaves the queue and every count as they were.
  Result<std::vector<WorkloadEntry>> TakeBucket(
      storage::BucketIndex b, std::vector<QueryId>* completed,
      uint64_t* restored_bytes = nullptr);

  /// Outstanding sub-query count for a pending query (0 if unknown/done).
  size_t PendingParts(QueryId id) const;

  /// Number of queries with outstanding work.
  size_t pending_queries() const { return pending_parts_.size(); }

  /// Total objects across all queues (memory pressure indicator; the paper
  /// assumes workload queues fit in memory).
  uint64_t total_pending_objects() const { return total_pending_objects_; }

 private:
  /// Spills the largest resident queues until the memory budget holds.
  Status MaybeSpill();

  std::vector<WorkloadQueue> queues_;
  std::set<storage::BucketIndex> active_;
  std::unordered_map<QueryId, size_t> pending_parts_;
  uint64_t total_pending_objects_ = 0;
  uint64_t resident_objects_ = 0;

  std::unique_ptr<WorkloadSpillFile> spill_;
  uint64_t memory_budget_objects_ = 0;  // 0 = unlimited (spill disabled)
  SpillStats spill_stats_;
};

}  // namespace liferaft::query

#endif  // LIFERAFT_QUERY_WORKLOAD_H_
