#include "sched/liferaft_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#include "storage/bucket.h"

namespace liferaft::sched {

LifeRaftScheduler::LifeRaftScheduler(const storage::BucketStore* store,
                                     storage::DiskModel model,
                                     LifeRaftConfig config)
    : store_(store), model_(model), config_(config) {
  assert(store_ != nullptr);
  assert(config_.alpha >= 0.0 && config_.alpha <= 1.0);
}

std::string LifeRaftScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "liferaft(a=%.2f)", config_.alpha);
  return buf;
}

double LifeRaftScheduler::EffectiveAge(const query::WorkloadQueue& queue,
                                       const query::WorkloadManager& manager,
                                       TimeMs now) const {
  if (!config_.qos.depreciate_long_queries) return queue.AgeMs(now);
  double best = 0.0;
  for (const query::WorkloadEntry& e : queue.entries()) {
    double weight =
        QosAgeWeight(config_.qos, manager.PendingParts(e.query_id));
    double age = (now - e.arrival_ms) * weight;
    if (age > best) best = age;
  }
  return best;
}

std::optional<storage::BucketIndex> LifeRaftScheduler::PickBucket(
    const query::WorkloadManager& manager, TimeMs now,
    const CacheProbe& cached) {
  std::vector<Candidate> candidates = PriceCandidates(manager, now, cached);
  const size_t best =
      SelectBest(candidates, std::vector<char>(candidates.size(), 0));
  if (best == candidates.size()) return std::nullopt;
  return candidates[best].bucket;
}

std::vector<storage::BucketIndex> LifeRaftScheduler::PeekNextBuckets(
    const query::WorkloadManager& manager, TimeMs now,
    const CacheProbe& cached, size_t k) const {
  // Rank iteratively: each prediction assumes the previous ones were
  // served (queue drained → no longer a candidate) and re-normalizes the
  // metric over the survivors, exactly as PickBucket would see them. The
  // per-bucket U_t and age are invariant across rounds, so they are
  // priced once; only the maxima and scores are re-taken per round. (The
  // deep peeks PeekNextBucketsCovering issues on multi-volume topologies
  // made the from-scratch re-ranking a measured CPU sink in real-I/O
  // mode.)
  std::vector<Candidate> candidates = PriceCandidates(manager, now, cached);
  std::vector<char> taken(candidates.size(), 0);
  std::vector<storage::BucketIndex> predicted;
  predicted.reserve(std::min(k, candidates.size()));
  while (predicted.size() < k) {
    const size_t best = SelectBest(candidates, taken);
    if (best == candidates.size()) break;
    taken[best] = 1;
    predicted.push_back(candidates[best].bucket);
  }
  return predicted;
}

std::vector<storage::BucketIndex> LifeRaftScheduler::PeekNextBucketsCovering(
    const query::WorkloadManager& manager, TimeMs now,
    const CacheProbe& cached,
    const std::function<uint32_t(storage::BucketIndex)>& volume_of,
    const std::vector<size_t>& want_per_volume) const {
  // Mirrors the base reference loop exactly — per-volume wants capped by
  // availability, coverage tested only at the geometric boundaries k0,
  // 2*k0, ... of the widening schedule, exhaustion returning whatever was
  // predicted — but selects incrementally over candidates priced ONCE.
  // PeekNextBuckets is prefix-consistent (round j's selection never
  // depends on how deep the peek will go), so extending the prediction in
  // place yields the same sequence the base loop's from-scratch
  // PeekNextBuckets(k) retries would.
  std::vector<size_t> want = want_per_volume;
  {
    std::vector<size_t> available(want.size(), 0);
    for (storage::BucketIndex b : manager.active_buckets()) {
      ++available[volume_of(b)];
    }
    for (size_t v = 0; v < want.size(); ++v) {
      want[v] = std::min(want[v], available[v]);
    }
  }
  size_t k0 = 0;
  for (size_t w : want) k0 += w;
  if (k0 == 0) return {};

  std::vector<Candidate> candidates = PriceCandidates(manager, now, cached);
  std::vector<char> taken(candidates.size(), 0);
  std::vector<storage::BucketIndex> predicted;
  std::vector<size_t> have(want.size(), 0);
  for (size_t boundary = k0;; boundary *= 2) {
    while (predicted.size() < boundary) {
      const size_t best = SelectBest(candidates, taken);
      // Fewer candidates than the boundary asks for: every bucket with
      // pending work is already predicted, so no wider peek can improve
      // coverage.
      if (best == candidates.size()) return predicted;
      taken[best] = 1;
      predicted.push_back(candidates[best].bucket);
      ++have[volume_of(candidates[best].bucket)];
    }
    bool covered = true;
    for (size_t v = 0; v < want.size(); ++v) {
      if (have[v] < want[v]) {
        covered = false;
        break;
      }
    }
    if (covered) return predicted;
  }
}

std::vector<LifeRaftScheduler::Candidate> LifeRaftScheduler::PriceCandidates(
    const query::WorkloadManager& manager, TimeMs now,
    const CacheProbe& cached) const {
  const auto& active = manager.active_buckets();
  std::vector<Candidate> candidates;
  candidates.reserve(active.size());
  for (storage::BucketIndex b : active) {
    const query::WorkloadQueue& queue = manager.queue(b);
    uint64_t bytes = store_->ModeledBucketBytes(b);
    double ut = WorkloadThroughputOnVolume(topology_, model_, b,
                                           queue.total_objects(), bytes,
                                           cached(b));
    double age = EffectiveAge(queue, manager, now);
    candidates.push_back(Candidate{b, ut, age});
  }
  return candidates;
}

size_t LifeRaftScheduler::SelectBest(const std::vector<Candidate>& candidates,
                                     const std::vector<char>& taken) const {
  // Pass 1: maxima for normalization over the surviving candidates.
  double ut_max = 0.0;
  double age_max = 0.0;
  size_t first = candidates.size();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (taken[i]) continue;
    if (first == candidates.size()) first = i;
    ut_max = std::max(ut_max, candidates[i].ut);
    age_max = std::max(age_max, candidates[i].age);
  }
  if (first == candidates.size()) return candidates.size();

  // Pass 2: rank by U_a. Ties break toward the earlier (lower-index)
  // candidate so runs are deterministic.
  size_t best = first;
  double best_score = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (taken[i]) continue;
    const Candidate& c = candidates[i];
    double score =
        config_.normalization == MetricNormalization::kRawPaper
            ? AgedThroughputRaw(c.ut, c.age, config_.alpha)
            : AgedThroughputNormalized(c.ut, ut_max, c.age, age_max,
                                       config_.alpha);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace liferaft::sched
