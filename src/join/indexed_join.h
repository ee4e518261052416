// Indexed cross-match: probes the archive's B+tree spatial index once per
// workload object instead of scanning the bucket. This is the join path the
// hybrid strategy selects when a workload queue is small relative to its
// bucket (paper §3.4), and the only path SkyQuery's legacy execution uses.

#ifndef LIFERAFT_JOIN_INDEXED_JOIN_H_
#define LIFERAFT_JOIN_INDEXED_JOIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "htm/range_set.h"
#include "join/merge_join.h"
#include "query/workload.h"
#include "storage/btree.h"

namespace liferaft::join {

/// Instrumentation for an indexed join.
struct IndexedJoinCounters {
  JoinCounters join;
  /// Index probes performed (one per workload object; each is a random
  /// I/O in the cost model).
  uint64_t probes = 0;
  /// Leaf pages touched across all probes.
  uint64_t leaves_visited = 0;
};

/// Cross-matches a workload batch via index probes, restricted to the
/// bucket's HTM range `restrict_to` (sub-queries are per-bucket even on the
/// indexed path, so a query object overlapping two buckets is matched
/// exactly once per bucket). Appends matches to `*out` (skipped when
/// null).
IndexedJoinCounters IndexedCrossMatch(
    const storage::BTreeIndex& index, const htm::IdRange& restrict_to,
    std::span<const query::WorkloadEntry> batch,
    std::vector<query::Match>* out);

}  // namespace liferaft::join

#endif  // LIFERAFT_JOIN_INDEXED_JOIN_H_
