// The Query Pre-Processor (paper §4): decomposes an incoming cross-match
// query into per-bucket sub-queries ("workloads"). Each sub-query operates
// on a single bucket and can be processed in any order; the union of
// sub-query results is the query result.

#ifndef LIFERAFT_QUERY_PREPROCESSOR_H_
#define LIFERAFT_QUERY_PREPROCESSOR_H_

#include <vector>

#include "query/query.h"
#include "storage/partitioner.h"

namespace liferaft::query {

/// W_ij: the objects of one query that overlap one bucket.
struct BucketWorkload {
  storage::BucketIndex bucket = 0;
  /// Objects of the query whose bounding ranges overlap this bucket.
  std::vector<QueryObject> objects;
};

/// Splits a query's objects by bucket. An object overlapping several
/// buckets is assigned to each (duplicate elimination is unnecessary: the
/// spatial join on point data matches each archive object in exactly one
/// bucket). Each object appears once per bucket it reaches, identified by
/// its position in the query, not its id. The returned workloads are
/// sorted by bucket index and non-empty; each keeps the query's object
/// order.
std::vector<BucketWorkload> SplitQueryByBucket(
    const CrossMatchQuery& query, const storage::BucketMap& map);

}  // namespace liferaft::query

#endif  // LIFERAFT_QUERY_PREPROCESSOR_H_
