// Workload-queue overflow (paper §6 future work): "we plan to address
// workload overflow in which queries will need to be stored to disk and
// fetched into memory for processing... the scheduler will migrate matching
// pairs of workload queue and bucket into memory for evaluation."
//
// WorkloadSpillFile is an append-only segment file of serialized workload
// entries. The WorkloadManager spills a queue's entries when the in-memory
// object budget is exceeded and restores them when the scheduler dispatches
// that bucket. Queue *metadata* (object counts, oldest age) always stays in
// memory, so the aged-throughput metric is unaffected by residency.

#ifndef LIFERAFT_QUERY_SPILL_H_
#define LIFERAFT_QUERY_SPILL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "storage/bucket.h"
#include "util/status.h"

namespace liferaft::query {

struct WorkloadEntry;  // defined in workload.h

/// Append-only spill file with per-bucket segment lists.
class WorkloadSpillFile {
 public:
  ~WorkloadSpillFile();

  WorkloadSpillFile(const WorkloadSpillFile&) = delete;
  WorkloadSpillFile& operator=(const WorkloadSpillFile&) = delete;

  /// Creates (truncates) the spill file at `path`.
  static Result<std::unique_ptr<WorkloadSpillFile>> Create(
      const std::string& path);

  /// Appends `entries` as one checksummed segment for `bucket`.
  /// On success the caller may drop the in-memory copies.
  Status Spill(storage::BucketIndex bucket,
               const std::vector<WorkloadEntry>& entries);

  /// Reads back and forgets every segment spilled for `bucket` (restored
  /// entries are appended to *out). `bytes_read`, if non-null, receives
  /// the number of file bytes read (for I/O cost accounting). A failed
  /// seek or read (IOError) or a bad segment (Corruption) names the
  /// bucket; the segments are kept and *out may hold a partial restore.
  Status Restore(storage::BucketIndex bucket, std::vector<WorkloadEntry>* out,
                 uint64_t* bytes_read = nullptr);

  /// True if any unspilled segments remain for `bucket`.
  bool HasSegments(storage::BucketIndex bucket) const;

  /// Total bytes ever written (the file is append-only; space from
  /// restored segments is reclaimed only by destroying the file).
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t segments_spilled() const { return segments_spilled_; }
  uint64_t segments_restored() const { return segments_restored_; }

 private:
  WorkloadSpillFile(std::FILE* file, std::string path);

  struct Segment {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  std::FILE* file_;
  std::string path_;
  uint64_t end_offset_ = 0;
  std::unordered_map<storage::BucketIndex, std::vector<Segment>> segments_;
  uint64_t bytes_written_ = 0;
  uint64_t segments_spilled_ = 0;
  uint64_t segments_restored_ = 0;
};

}  // namespace liferaft::query

#endif  // LIFERAFT_QUERY_SPILL_H_
