#include "sim/engine.h"

#include <algorithm>
#include <cassert>

#include "query/preprocessor.h"
#include "sched/liferaft_scheduler.h"

namespace liferaft::sim {

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kShared:
      return "shared";
    case ExecutionMode::kNoShare:
      return "noshare";
    case ExecutionMode::kIndexOnly:
      return "indexonly";
  }
  return "?";
}

SimEngine::SimEngine(storage::Catalog* catalog,
                     std::unique_ptr<sched::Scheduler> scheduler,
                     EngineConfig config)
    : catalog_(catalog),
      scheduler_(std::move(scheduler)),
      config_(config) {
  assert(catalog_ != nullptr);
}

void SimEngine::RecordCompletion(query::QueryId id, TimeMs completion) {
  auto it = pending_outcomes_.find(id);
  assert(it != pending_outcomes_.end());
  it->second.completion_ms = completion;
  outcomes_.push_back(it->second);
  pending_outcomes_.erase(it);
}

Result<bool> SimEngine::SharedStep() {
  // The pick→prefetch→claim→evaluate→account loop lives in
  // exec::BatchPipeline (shared with core::LifeRaft); the engine only owns
  // the clock and the per-query outcome bookkeeping.
  LIFERAFT_ASSIGN_OR_RETURN(
      std::optional<exec::StepOutcome> outcome,
      stack_->pipeline()->Step(clock_, config_.collect_matches));
  if (!outcome.has_value()) return false;
  if (config_.io_mode == IoMode::kReal) {
    // Measured execution: the clock IS elapsed wall time. (max: an idle
    // jump to a future arrival may have pushed clock_ ahead of the wall.)
    clock_ = std::max(clock_, wall_.NowMs() - wall_base_ms_);
  } else {
    // Two additions, exactly as the pre-exec loop advanced the clock, so
    // makespans stay bit-identical across the refactor (FP addition is
    // not associative).
    clock_ += outcome->fetch_residual_ms + outcome->cost_ms;
    clock_ += outcome->restore_ms;
  }
  total_matches_ += outcome->counters.output_matches;
  if (config_.collect_matches) {
    for (const query::Match& m : outcome->matches) {
      auto it = pending_outcomes_.find(m.query_id);
      if (it != pending_outcomes_.end()) ++it->second.matches;
    }
  }
  for (query::QueryId id : outcome->completed) RecordCompletion(id, clock_);
  return true;
}

Result<bool> SimEngine::PerQueryStep() {
  if (fifo_head_ >= fifo_.size()) return false;
  const AdmittedQuery& aq = fifo_[fifo_head_];
  const join::PerQueryMode mode = config_.mode == ExecutionMode::kNoShare
                                      ? join::PerQueryMode::kNoShareScan
                                      : join::PerQueryMode::kIndexProbes;
  LIFERAFT_ASSIGN_OR_RETURN(
      join::PerQueryResult r,
      stack_->evaluator().EvaluatePerQuery(
          mode,
          join::PerQueryWork{aq.query->id, aq.arrival_ms, aq.query->predicate,
                             &aq.workloads},
          config_.collect_matches));
  ++fifo_head_;
  for (const auto& w : aq.workloads) {
    fifo_pending_objects_ -= w.objects.size();
  }
  clock_ += r.cost_ms;
  total_matches_ += r.matches;
  auto it = pending_outcomes_.find(aq.query->id);
  assert(it != pending_outcomes_.end());
  it->second.matches = r.matches;
  RecordCompletion(aq.query->id, clock_);
  return true;
}

Status SimEngine::PrepareRun(size_t expected_queries) {
  LIFERAFT_RETURN_IF_ERROR(config_.Validate());
  const bool shared = config_.mode == ExecutionMode::kShared;
  if (shared && scheduler_ == nullptr) {
    return Status::FailedPrecondition("shared mode requires a scheduler");
  }
  if (config_.mode == ExecutionMode::kIndexOnly &&
      catalog_->index() == nullptr) {
    return Status::FailedPrecondition("index-only mode requires an index");
  }
  const bool real_io = config_.io_mode == IoMode::kReal;
  if (real_io) {
    if (!shared) {
      return Status::InvalidArgument(
          "real I/O mode requires shared execution");
    }
    if (!catalog_->store()->SupportsConcurrentReads()) {
      return Status::InvalidArgument(
          "real I/O mode requires a store with concurrent reads");
    }
  }

  // Reset run state.
  clock_ = 0.0;
  fifo_.clear();
  fifo_head_ = 0;
  fifo_pending_objects_ = 0;
  peak_pending_objects_ = 0;
  pending_outcomes_.clear();
  outcomes_.clear();
  outcomes_.reserve(expected_queries);
  total_matches_ = 0;
  // The old stack goes first, so two stacks (and their readers' I/O
  // threads) never coexist.
  stack_.reset();
  catalog_->store()->ResetStats();
  LIFERAFT_ASSIGN_OR_RETURN(
      stack_, exec::ExecutionStack::Create(
                  config_, catalog_, shared ? scheduler_.get() : nullptr,
                  real_io));
  if (shared && !config_.spill_path.empty()) {
    LIFERAFT_RETURN_IF_ERROR(stack_->manager().EnableSpill(
        config_.spill_path, config_.workload_memory_budget));
  }
  wall_base_ms_ = wall_.NowMs();
  return Status::OK();
}

Result<RunMetrics> SimEngine::Run(
    const std::vector<query::CrossMatchQuery>& queries,
    const std::vector<TimeMs>& arrivals_ms) {
  if (queries.size() != arrivals_ms.size()) {
    return Status::InvalidArgument("queries and arrivals size mismatch");
  }
  if (!std::is_sorted(arrivals_ms.begin(), arrivals_ms.end())) {
    return Status::InvalidArgument("arrivals must be ascending");
  }
  // No shedding bounds: every arrival is admitted.
  return ServeLoop(queries, arrivals_ms, ServeConfig{});
}

Result<RunMetrics> SimEngine::Serve(
    const std::vector<query::CrossMatchQuery>& queries,
    const ServeConfig& serve) {
  if (config_.mode != ExecutionMode::kShared) {
    return Status::InvalidArgument(
        "serving requires shared execution mode");
  }
  if (config_.io_mode == IoMode::kReal) {
    // Admission control and QoS latency targets are defined on the
    // virtual clock; a wall-clock serving loop is a different experiment.
    return Status::InvalidArgument("serving requires modeled I/O");
  }
  LIFERAFT_RETURN_IF_ERROR(serve.Validate());
  LIFERAFT_ASSIGN_OR_RETURN(std::vector<TimeMs> arrivals_ms,
                            BuildArrivals(serve.arrivals, queries.size()));
  return ServeLoop(queries, arrivals_ms, serve);
}

Result<RunMetrics> SimEngine::ServeLoop(
    const std::vector<query::CrossMatchQuery>& queries,
    const std::vector<TimeMs>& arrivals_ms, const ServeConfig& serve) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty trace");
  }
  for (const auto& q : queries) {
    if (q.objects.empty()) {
      return Status::InvalidArgument("query " + std::to_string(q.id) +
                                     " has no objects");
    }
  }
  LIFERAFT_RETURN_IF_ERROR(PrepareRun(queries.size()));
  const bool shared = config_.mode == ExecutionMode::kShared;
  query::WorkloadManager& manager = stack_->manager();
  exec::BatchPipeline* pipeline = stack_->pipeline();  // null unless shared

  AdmissionController admission(serve);

  size_t next_arrival = 0;
  const size_t n = queries.size();
  size_t admitted = 0;
  size_t shed_by_class[kNumQosClasses] = {0, 0};

  auto admit_ready = [&]() -> Status {
    while (next_arrival < n && arrivals_ms[next_arrival] <= clock_) {
      const query::CrossMatchQuery& q = queries[next_arrival];
      const TimeMs arrival = arrivals_ms[next_arrival];
      ++next_arrival;
      auto workloads = query::SplitQueryByBucket(q, catalog_->bucket_map());
      const QosClass qos = workloads.size() <= serve.interactive_max_parts
                               ? QosClass::kInteractive
                               : QosClass::kBatch;
      // The controller sees the buffer as it stands; its verdict is final
      // — a shed query never touches the workload manager.
      if (!admission.Offer(manager.total_pending_objects(),
                           manager.pending_queries(), q.objects.size())) {
        ++shed_by_class[static_cast<size_t>(qos)];
        continue;
      }
      if (pending_outcomes_.count(q.id) != 0) {
        return Status::AlreadyExists("duplicate query id " +
                                     std::to_string(q.id));
      }
      QueryOutcome outcome;
      outcome.id = q.id;
      outcome.arrival_ms = arrival;
      outcome.parts = workloads.size();
      outcome.qos = qos;
      pending_outcomes_[q.id] = outcome;
      ++admitted;
      if (shared) {
        query::CrossMatchQuery stamped;  // metadata only; objects live in
        stamped.id = q.id;               // the workloads
        stamped.arrival_ms = arrival;
        stamped.predicate = q.predicate;
        LIFERAFT_RETURN_IF_ERROR(
            manager.Admit(stamped, std::move(workloads)).status());
        peak_pending_objects_ =
            std::max(peak_pending_objects_, manager.total_pending_objects());
      } else {
        for (const auto& w : workloads) {
          fifo_pending_objects_ += w.objects.size();
        }
        fifo_.push_back(AdmittedQuery{&q, std::move(workloads), arrival});
        peak_pending_objects_ =
            std::max(peak_pending_objects_, fifo_pending_objects_);
      }
    }
    return Status::OK();
  };

  while (next_arrival < n || outcomes_.size() < admitted) {
    LIFERAFT_RETURN_IF_ERROR(admit_ready());
    Result<bool> worked = shared ? SharedStep() : PerQueryStep();
    if (!worked.ok()) return worked.status();
    if (!*worked) {
      if (next_arrival >= n) {
        if (outcomes_.size() < admitted) {
          return Status::Internal("no pending work but queries incomplete");
        }
        break;
      }
      // Idle until the next arrival.
      clock_ = std::max(clock_, arrivals_ms[next_arrival]);
    }
  }
  if (pipeline != nullptr) {
    // Final predictions whose buckets were never scheduled again.
    pipeline->CancelOutstandingPrefetches();
  }
  return AssembleMetrics(admission, shed_by_class);
}

RunMetrics SimEngine::AssembleMetrics(
    const AdmissionController& admission,
    const size_t (&shed_by_class)[kNumQosClasses]) {
  const exec::BatchPipeline* pipeline = stack_->pipeline();
  RunMetrics metrics;
  metrics.scheduler_name = config_.mode == ExecutionMode::kShared
                               ? scheduler_->name()
                               : ExecutionModeName(config_.mode);
  metrics.queries_completed = outcomes_.size();
  // Makespan is the max over the completion clock and every arm's
  // consumed-work clock. A batch completion always waits out its own
  // arm's residual before its CPU phase, so the completion clock
  // dominates and the max is exact — bit-identical to the pre-topology
  // single-clock accounting on one volume.
  metrics.makespan_ms = clock_;
  if (pipeline != nullptr) {
    metrics.volumes = pipeline->volume_stats();
    for (const storage::VolumeIoStats& v : metrics.volumes) {
      metrics.makespan_ms = std::max(metrics.makespan_ms,
                                     v.consumed_until_ms);
    }
  }
  // Every admitted query completed, so the completion count is the
  // admitted count.
  const double completed = static_cast<double>(outcomes_.size());
  metrics.throughput_qps = clock_ > 0.0 ? completed / (clock_ / 1000.0) : 0.0;
  Percentiles pct;
  Percentiles class_pct[kNumQosClasses];
  StreamingStats class_stats[kNumQosClasses];
  for (const QueryOutcome& o : outcomes_) {
    metrics.response_stats.Add(o.ResponseMs());
    pct.Add(o.ResponseMs());
    class_pct[static_cast<size_t>(o.qos)].Add(o.ResponseMs());
    class_stats[static_cast<size_t>(o.qos)].Add(o.ResponseMs());
  }
  metrics.avg_response_ms = metrics.response_stats.mean();
  metrics.p50_response_ms = pct.Percentile(50);
  metrics.p95_response_ms = pct.Percentile(95);
  metrics.p99_response_ms = pct.Percentile(99);
  metrics.response_cov = metrics.response_stats.coefficient_of_variation();
  metrics.cache = stack_->cache().stats();
  metrics.store = catalog_->store()->stats();
  metrics.evaluator = stack_->evaluator().stats();
  metrics.total_matches = total_matches_;
  metrics.peak_pending_objects = peak_pending_objects_;
  metrics.spill = stack_->manager().spill_stats();
  metrics.prefetch_hidden_ms =
      pipeline != nullptr ? pipeline->prefetch_hidden_ms() : 0.0;
  if (stack_->reader() != nullptr) {
    metrics.real_io_enabled = true;
    metrics.real_io = stack_->reader()->VolumeStats();
  }

  metrics.queries_offered = admission.offered();
  metrics.queries_shed = admission.shed();
  if (metrics.makespan_ms > 0.0) {
    metrics.offered_qps = static_cast<double>(metrics.queries_offered) /
                          (metrics.makespan_ms / 1000.0);
    metrics.sustained_qps = completed / (metrics.makespan_ms / 1000.0);
  }
  if (auto* lr = dynamic_cast<sched::LifeRaftScheduler*>(scheduler_.get())) {
    metrics.alpha_final = lr->alpha();
  }
  metrics.qos_classes.resize(kNumQosClasses);
  for (size_t c = 0; c < kNumQosClasses; ++c) {
    QosClassMetrics& qc = metrics.qos_classes[c];
    qc.name = QosClassName(static_cast<QosClass>(c));
    qc.completed = class_stats[c].count();
    qc.shed = shed_by_class[c];
    qc.mean_response_ms = class_stats[c].mean();
    if (qc.completed > 0) {
      qc.p50_response_ms = class_pct[c].Percentile(50);
      qc.p95_response_ms = class_pct[c].Percentile(95);
      qc.p99_response_ms = class_pct[c].Percentile(99);
    }
  }
  return metrics;
}

}  // namespace liferaft::sim
