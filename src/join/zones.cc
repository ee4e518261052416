#include "join/zones.h"

#include <algorithm>
#include <cmath>

namespace liferaft::join {

ZoneIndex::ZoneIndex(const storage::ColumnarPage& page,
                     double zone_height_deg)
    : page_(&page), zone_height_deg_(std::max(zone_height_deg, 1e-6)) {
  int num_zones =
      static_cast<int>(std::ceil(180.0 / zone_height_deg_)) + 1;
  zones_.resize(static_cast<size_t>(num_zones));
  const std::span<const double> dec = page.dec();
  for (uint32_t i = 0; i < page.size(); ++i) {
    zones_[static_cast<size_t>(ZoneOf(dec[i]))].by_ra.push_back(i);
  }
  const std::span<const double> ra = page.ra();
  for (auto& z : zones_) {
    std::sort(z.by_ra.begin(), z.by_ra.end(),
              [&ra](uint32_t a, uint32_t b) { return ra[a] < ra[b]; });
  }
}

int ZoneIndex::ZoneOf(double dec_deg) const {
  int z = static_cast<int>(std::floor((dec_deg + 90.0) / zone_height_deg_));
  return std::clamp(z, 0, static_cast<int>(zones_.size()) - 1);
}

void ZoneIndex::Candidates(const query::QueryObject& qo,
                           std::vector<uint32_t>* out) const {
  const std::span<const double> ra = page_->ra();
  const double r_deg = qo.radius_arcsec / kArcsecPerDeg;
  int z_lo = ZoneOf(qo.dec_deg - r_deg);
  int z_hi = ZoneOf(qo.dec_deg + r_deg);
  // RA window width grows with |dec|; use the worst case over the circle
  // and guard the pole where the window degenerates to all RA.
  double max_abs_dec =
      std::min(89.9999, std::max(std::abs(qo.dec_deg - r_deg),
                                 std::abs(qo.dec_deg + r_deg)));
  double cos_dec = std::cos(max_abs_dec * kDegToRad);
  bool full_ra = cos_dec <= 1e-9 || r_deg / cos_dec >= 180.0;
  double dr = full_ra ? 180.0 : r_deg / cos_dec;

  for (int z = z_lo; z <= z_hi; ++z) {
    const auto& by_ra = zones_[static_cast<size_t>(z)].by_ra;
    if (by_ra.empty()) continue;
    auto scan = [&](double lo, double hi) {
      auto first = std::lower_bound(
          by_ra.begin(), by_ra.end(), lo,
          [&ra](uint32_t i, double v) { return ra[i] < v; });
      for (auto it = first; it != by_ra.end() && ra[*it] <= hi; ++it) {
        out->push_back(*it);
      }
    };
    if (full_ra) {
      for (uint32_t i : by_ra) out->push_back(i);
      continue;
    }
    double lo = qo.ra_deg - dr;
    double hi = qo.ra_deg + dr;
    if (lo < 0.0) {
      scan(0.0, hi);
      scan(lo + 360.0, 360.0);
    } else if (hi > 360.0) {
      scan(lo, 360.0);
      scan(0.0, hi - 360.0);
    } else {
      scan(lo, hi);
    }
  }
}

JoinCounters ZonesCrossMatch(const storage::Bucket& bucket,
                             const std::vector<query::WorkloadEntry>& batch,
                             double zone_height_deg,
                             std::vector<query::Match>* out) {
  JoinCounters counters;
  const storage::ColumnarPage& page = bucket.page();
  ZoneIndex index(page, zone_height_deg);
  const std::span<const double> ra = page.ra();
  const std::span<const double> dec = page.dec();
  const std::span<const float> mag = page.mag();
  const std::span<const float> color = page.color();
  std::vector<uint32_t> candidates;
  for (const query::WorkloadEntry& entry : batch) {
    for (const query::QueryObject& qo : entry.objects) {
      ++counters.workload_objects;
      candidates.clear();
      index.Candidates(qo, &candidates);
      const RadiusTest test(qo);
      for (uint32_t i : candidates) {
        ++counters.candidates_tested;
        double sep = 0.0;
        if (!test(page.Positions(i, i + 1)[0], &sep)) continue;
        ++counters.spatial_matches;
        if (!entry.predicate.Matches(mag[i], color[i])) continue;
        ++counters.output_matches;
        if (out != nullptr) {
          out->push_back(query::Match{entry.query_id, qo.id,
                                      page.object_id(i), sep, ra[i], dec[i]});
        }
      }
    }
  }
  return counters;
}

}  // namespace liferaft::join
