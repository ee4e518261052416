#include "query/workload.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace liferaft::query {

void WorkloadQueue::Push(WorkloadEntry entry) {
  assert(!entry.objects.empty());
  if (total_objects_ == 0 || entry.arrival_ms < oldest_arrival_ms_) {
    oldest_arrival_ms_ = entry.arrival_ms;
  }
  total_objects_ += entry.objects.size();
  resident_objects_ += entry.objects.size();
  entries_.push_back(std::move(entry));
}

std::vector<WorkloadEntry> WorkloadQueue::TakeAll() {
  std::vector<WorkloadEntry> out(std::make_move_iterator(entries_.begin()),
                                 std::make_move_iterator(entries_.end()));
  entries_.clear();
  total_objects_ = 0;
  resident_objects_ = 0;
  oldest_arrival_ms_ = 0.0;
  return out;
}

std::vector<WorkloadEntry> WorkloadQueue::ExtractResidents() {
  std::vector<WorkloadEntry> out(std::make_move_iterator(entries_.begin()),
                                 std::make_move_iterator(entries_.end()));
  entries_.clear();
  resident_objects_ = 0;
  // total_objects_ and oldest_arrival_ms_ deliberately unchanged: the work
  // is still pending, just spilled.
  return out;
}

WorkloadManager::WorkloadManager(size_t num_buckets) {
  queues_.reserve(num_buckets);
  for (size_t i = 0; i < num_buckets; ++i) {
    queues_.emplace_back(static_cast<storage::BucketIndex>(i));
  }
}

Status WorkloadManager::EnableSpill(const std::string& path,
                                    uint64_t memory_budget_objects) {
  if (memory_budget_objects == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  if (spill_ != nullptr) {
    return Status::FailedPrecondition("spill already enabled");
  }
  LIFERAFT_ASSIGN_OR_RETURN(spill_, WorkloadSpillFile::Create(path));
  memory_budget_objects_ = memory_budget_objects;
  return MaybeSpill();
}

Status WorkloadManager::MaybeSpill() {
  if (spill_ == nullptr) return Status::OK();
  while (resident_objects_ > memory_budget_objects_) {
    // Victim: the queue with the most resident objects (spilling it frees
    // the most memory per segment; its metadata keeps it schedulable).
    WorkloadQueue* victim = nullptr;
    for (storage::BucketIndex b : active_) {
      WorkloadQueue& q = queues_[b];
      if (q.resident_objects() == 0) continue;
      if (victim == nullptr ||
          q.resident_objects() > victim->resident_objects()) {
        victim = &q;
      }
    }
    if (victim == nullptr) break;  // everything resident is in-flight
    uint64_t freed = victim->resident_objects();
    std::vector<WorkloadEntry> entries = victim->ExtractResidents();
    uint64_t before = spill_->bytes_written();
    LIFERAFT_RETURN_IF_ERROR(spill_->Spill(victim->bucket(), entries));
    resident_objects_ -= freed;
    ++spill_stats_.segments_spilled;
    spill_stats_.bytes_spilled += spill_->bytes_written() - before;
  }
  return Status::OK();
}

Result<size_t> WorkloadManager::Admit(const CrossMatchQuery& query,
                                      std::vector<BucketWorkload> workloads) {
  if (workloads.empty()) {
    return Status::InvalidArgument("query " + std::to_string(query.id) +
                                   " produced no bucket workloads");
  }
  if (pending_parts_.count(query.id) != 0) {
    return Status::AlreadyExists("query " + std::to_string(query.id) +
                                 " is already pending");
  }
  for (const BucketWorkload& w : workloads) {
    if (w.bucket >= queues_.size()) {
      return Status::OutOfRange("workload bucket out of range");
    }
    if (w.objects.empty()) {
      return Status::InvalidArgument("empty bucket workload");
    }
  }
  for (BucketWorkload& w : workloads) {
    WorkloadEntry entry;
    entry.query_id = query.id;
    entry.arrival_ms = query.arrival_ms;
    entry.predicate = query.predicate;
    entry.objects = std::move(w.objects);
    total_pending_objects_ += entry.objects.size();
    resident_objects_ += entry.objects.size();
    queues_[w.bucket].Push(std::move(entry));
    active_.insert(w.bucket);
  }
  pending_parts_[query.id] = workloads.size();
  LIFERAFT_RETURN_IF_ERROR(MaybeSpill());
  return workloads.size();
}

Result<std::vector<WorkloadEntry>> WorkloadManager::TakeBucket(
    storage::BucketIndex b, std::vector<QueryId>* completed,
    uint64_t* restored_bytes) {
  assert(b < queues_.size());
  // Restore before touching the queue, so a failed restore leaves the
  // bucket's work and every count in place.
  std::vector<WorkloadEntry> restored;
  uint64_t bytes = 0;
  if (spill_ != nullptr && spill_->HasSegments(b)) {
    LIFERAFT_RETURN_IF_ERROR(spill_->Restore(b, &restored, &bytes));
    ++spill_stats_.segments_restored;
    spill_stats_.bytes_restored += bytes;
  }
  if (restored_bytes != nullptr) *restored_bytes = bytes;

  resident_objects_ -= queues_[b].resident_objects();
  std::vector<WorkloadEntry> entries = queues_[b].TakeAll();
  active_.erase(b);
  entries.insert(entries.end(), std::make_move_iterator(restored.begin()),
                 std::make_move_iterator(restored.end()));

  for (const WorkloadEntry& e : entries) {
    total_pending_objects_ -= e.objects.size();
    auto it = pending_parts_.find(e.query_id);
    assert(it != pending_parts_.end());
    if (--it->second == 0) {
      if (completed != nullptr) completed->push_back(e.query_id);
      pending_parts_.erase(it);
    }
  }
  return entries;
}

size_t WorkloadManager::PendingParts(QueryId id) const {
  auto it = pending_parts_.find(id);
  return it == pending_parts_.end() ? 0 : it->second;
}

}  // namespace liferaft::query
