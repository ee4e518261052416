// Trace persistence: save a generated query trace to a binary file and
// replay it later, so experiments across schedulers run the exact same
// workload (and traces can be shipped between machines).

#ifndef LIFERAFT_WORKLOAD_TRACE_IO_H_
#define LIFERAFT_WORKLOAD_TRACE_IO_H_

#include <string>
#include <vector>

#include "query/query.h"
#include "util/status.h"

namespace liferaft::workload {

/// Writes the trace to `path` (overwrites). Object HTM covers are not
/// stored; they are deterministic functions of position and radius and are
/// recomputed on load.
Status SaveTrace(const std::string& path,
                 const std::vector<query::CrossMatchQuery>& trace);

/// Loads a trace written by SaveTrace, recomputing HTM covers. Validates
/// magic and checksum, and returns Corruption, naming the query and
/// object, for an object with a non-finite ra, dec or radius, |dec| > 90,
/// or a negative radius.
Result<std::vector<query::CrossMatchQuery>> LoadTrace(
    const std::string& path);

}  // namespace liferaft::workload

#endif  // LIFERAFT_WORKLOAD_TRACE_IO_H_
