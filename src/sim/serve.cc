#include "sim/serve.h"

#include <algorithm>
#include <string>

#include "sim/arrivals.h"
#include "util/random.h"

namespace liferaft::sim {

const char* QosClassName(QosClass c) {
  switch (c) {
    case QosClass::kInteractive:
      return "interactive";
    case QosClass::kBatch:
      return "batch";
  }
  return "?";
}

const char* ArrivalKindName(ArrivalSpec::Kind kind) {
  switch (kind) {
    case ArrivalSpec::Kind::kPoisson:
      return "poisson";
    case ArrivalSpec::Kind::kUniform:
      return "uniform";
    case ArrivalSpec::Kind::kBursty:
      return "bursty";
    case ArrivalSpec::Kind::kTrace:
      return "trace";
    case ArrivalSpec::Kind::kDiurnal:
      return "diurnal";
    case ArrivalSpec::Kind::kFlashCrowd:
      return "flash-crowd";
  }
  return "?";
}

Status ArrivalSpec::Validate(size_t n) const {
  switch (kind) {
    case Kind::kTrace:
      if (trace.size() != n) {
        return Status::InvalidArgument(
            "ArrivalSpec: trace size " + std::to_string(trace.size()) +
            " does not match query count " + std::to_string(n));
      }
      if (!std::is_sorted(trace.begin(), trace.end())) {
        return Status::InvalidArgument("ArrivalSpec: trace must be ascending");
      }
      return Status::OK();
    case Kind::kPoisson:
    case Kind::kUniform:
      if (!(rate_qps > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: rate_qps must be positive");
      }
      return Status::OK();
    case Kind::kBursty:
      if (!(rate_qps > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: rate_qps must be positive");
      }
      if (!(rate_off_qps >= 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: rate_off_qps must be >= 0");
      }
      if (!(mean_phase_ms > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: mean_phase_ms must be positive");
      }
      // An arrival needs an exponential gap shorter than its phase. Below
      // one expected arrival per 100 phases, BurstyArrivals steps through
      // phases and may never return (mean_phase_ms = 1e-300 does not).
      if (std::max(rate_qps, rate_off_qps) * mean_phase_ms / 1000.0 < 0.01) {
        return Status::InvalidArgument(
            "ArrivalSpec: max(rate_qps, rate_off_qps) * mean_phase_ms / 1000 "
            "must be >= 0.01 expected arrivals per phase");
      }
      return Status::OK();
    case Kind::kDiurnal:
      if (!(rate_qps > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: rate_qps must be positive");
      }
      if (!(amplitude >= 0.0) || !(amplitude <= 1.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: amplitude must be in [0, 1]");
      }
      if (!(period_ms > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: period_ms must be positive");
      }
      return Status::OK();
    case Kind::kFlashCrowd:
      if (!(rate_qps > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: rate_qps must be positive");
      }
      if (!(spike_factor >= 1.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: spike_factor must be >= 1");
      }
      if (!(spike_start_ms >= 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: spike_start_ms must be >= 0");
      }
      if (!(decay_ms > 0.0)) {
        return Status::InvalidArgument(
            "ArrivalSpec: decay_ms must be positive");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("ArrivalSpec: unknown kind");
}

Result<std::vector<TimeMs>> BuildArrivals(const ArrivalSpec& spec, size_t n) {
  LIFERAFT_RETURN_IF_ERROR(spec.Validate(n));
  Rng rng(spec.seed);
  switch (spec.kind) {
    case ArrivalSpec::Kind::kPoisson:
      return PoissonArrivals(n, spec.rate_qps, &rng);
    case ArrivalSpec::Kind::kUniform:
      return UniformArrivals(n, spec.rate_qps);
    case ArrivalSpec::Kind::kBursty:
      return BurstyArrivals(n, spec.rate_qps, spec.rate_off_qps,
                            spec.mean_phase_ms, &rng);
    case ArrivalSpec::Kind::kDiurnal:
      return DiurnalArrivals(n, spec.rate_qps, spec.amplitude,
                             spec.period_ms, &rng);
    case ArrivalSpec::Kind::kFlashCrowd:
      return FlashCrowdArrivals(n, spec.rate_qps, spec.spike_factor,
                                spec.spike_start_ms, spec.decay_ms, &rng);
    case ArrivalSpec::Kind::kTrace:
      return spec.trace;
  }
  return Status::InvalidArgument("BuildArrivals: unknown kind");
}

Status ServeConfig::Validate() const {
  // Arrival parameters are checked against the query count in Serve;
  // Validate(0) would reject non-empty traces, so only the shape-
  // independent fields are checked here.
  if (interactive_max_parts == 0) {
    return Status::InvalidArgument(
        "ServeConfig: interactive_max_parts must be >= 1");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(const ServeConfig& config)
    : max_pending_queries_(config.max_pending_queries),
      max_pending_objects_(config.max_pending_objects) {}

bool AdmissionController::Offer(uint64_t pending_objects,
                                size_t pending_queries,
                                uint64_t query_objects) {
  std::lock_guard<std::mutex> lock(mu_);
  ++offered_;
  bool over_queries = max_pending_queries_ != 0 &&
                      pending_queries + 1 > max_pending_queries_;
  bool over_objects = max_pending_objects_ != 0 &&
                      pending_objects + query_objects > max_pending_objects_;
  if (over_queries || over_objects) {
    ++shed_;
    return false;
  }
  return true;
}

uint64_t AdmissionController::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

uint64_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

}  // namespace liferaft::sim
