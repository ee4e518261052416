// Post-join predicates. Cross-match objects from many queries are
// interleaved in one workload queue and joined in a single pass; the
// query-specific filters are applied afterwards to each query's own matches
// (paper §3.1).

#ifndef LIFERAFT_QUERY_PREDICATE_H_
#define LIFERAFT_QUERY_PREDICATE_H_

#include <limits>
#include <string>

#include "storage/object.h"

namespace liferaft::query {

/// Conjunctive range predicate over catalog attributes. An unset bound is
/// unrestricted; the default predicate accepts everything.
struct Predicate {
  float min_mag = -std::numeric_limits<float>::infinity();
  float max_mag = std::numeric_limits<float>::infinity();
  float min_color = -std::numeric_limits<float>::infinity();
  float max_color = std::numeric_limits<float>::infinity();

  bool Matches(const storage::CatalogObject& o) const {
    return Matches(o.mag, o.color);
  }

  /// Attribute-column form for the page scan kernels.
  bool Matches(float mag, float color) const {
    return mag >= min_mag && mag <= max_mag && color >= min_color &&
           color <= max_color;
  }

  bool IsTrivial() const {
    return min_mag == -std::numeric_limits<float>::infinity() &&
           max_mag == std::numeric_limits<float>::infinity() &&
           min_color == -std::numeric_limits<float>::infinity() &&
           max_color == std::numeric_limits<float>::infinity();
  }

  std::string ToString() const;
};

}  // namespace liferaft::query

#endif  // LIFERAFT_QUERY_PREDICATE_H_
