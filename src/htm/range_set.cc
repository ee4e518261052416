#include "htm/range_set.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace liferaft::htm {
namespace {

// True if `next` (with next.lo >= last.lo) overlaps or exactly abuts `last`.
bool Mergeable(const IdRange& last, const IdRange& next) {
  return next.lo <= last.hi ||
         (last.hi != UINT64_MAX && next.lo == last.hi + 1);
}

}  // namespace

RangeSet::RangeSet(std::vector<IdRange> ranges)
    : ranges_(std::move(ranges)), normalized_(false) {}

void RangeSet::Add(IdRange r) {
  assert(r.lo <= r.hi);
  // A range that starts at or after the last one's start cannot touch any
  // earlier range, so merging it into the tail keeps a normalized set
  // normalized, by the rule Normalize() applies.
  if (normalized_ && (ranges_.empty() || r.lo >= ranges_.back().lo)) {
    if (!ranges_.empty() && Mergeable(ranges_.back(), r)) {
      ranges_.back().hi = std::max(ranges_.back().hi, r.hi);
    } else {
      ranges_.push_back(r);
    }
    return;
  }
  ranges_.push_back(r);
  normalized_ = false;
}

void RangeSet::Normalize() const {
  if (normalized_) return;
  std::sort(ranges_.begin(), ranges_.end(),
            [](const IdRange& a, const IdRange& b) { return a.lo < b.lo; });
  std::vector<IdRange> merged;
  for (const auto& r : ranges_) {
    if (!merged.empty() && Mergeable(merged.back(), r)) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  ranges_ = std::move(merged);
  normalized_ = true;
}

bool RangeSet::Contains(HtmId id) const {
  Normalize();
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), id,
      [](HtmId v, const IdRange& r) { return v < r.lo; });
  if (it == ranges_.begin()) return false;
  --it;
  return it->Contains(id);
}

bool RangeSet::Overlaps(const IdRange& r) const {
  Normalize();
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), r.hi,
      [](HtmId v, const IdRange& x) { return v < x.lo; });
  if (it == ranges_.begin()) return false;
  --it;
  return it->Overlaps(r);
}

uint64_t RangeSet::Count() const {
  Normalize();
  uint64_t total = 0;
  for (const auto& r : ranges_) total += r.Count();
  return total;
}

const std::vector<IdRange>& RangeSet::ranges() const {
  Normalize();
  return ranges_;
}

RangeSet RangeSet::Intersect(const RangeSet& other) const {
  Normalize();
  other.Normalize();
  RangeSet out;
  size_t i = 0, j = 0;
  while (i < ranges_.size() && j < other.ranges_.size()) {
    const IdRange& a = ranges_[i];
    const IdRange& b = other.ranges_[j];
    HtmId lo = std::max(a.lo, b.lo);
    HtmId hi = std::min(a.hi, b.hi);
    if (lo <= hi) out.Add(lo, hi);
    if (a.hi < b.hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::string RangeSet::ToString() const {
  Normalize();
  std::ostringstream out;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (i) out << ' ';
    out << '[' << ranges_[i].lo << ',' << ranges_[i].hi << ']';
  }
  return out.str();
}

}  // namespace liferaft::htm
