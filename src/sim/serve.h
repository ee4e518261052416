// Continuous serving on top of the batch engine (paper §6's deployment
// story): queries arrive open-loop from a stochastic process or a recorded
// trace, are classified into QoS classes at the front door, pass an
// admission controller that sheds load when the buffered workload outgrows
// what the disk arms can drain, and then flow through the same
// pick→prefetch→claim→evaluate→account pipeline the closed-workload drain
// uses. SimEngine::Run is the same loop with a default ServeConfig, which
// admits everything.

#ifndef LIFERAFT_SIM_SERVE_H_
#define LIFERAFT_SIM_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace liferaft::sim {

/// QoS class of a served query, assigned at admission from the query's
/// fan-out (bucket sub-query count): small queries are interactive, sky
/// spanning ones are batch. Matches the paper's interactive/batch split
/// that sched::QosAgeWeight depreciates by.
enum class QosClass { kInteractive = 0, kBatch = 1 };

inline constexpr size_t kNumQosClasses = 2;

const char* QosClassName(QosClass c);

/// How served queries arrive. kTrace replays explicit timestamps (and is
/// the bridge for closed-workload equivalence tests); the stochastic kinds
/// generate sim::PoissonArrivals / UniformArrivals / BurstyArrivals /
/// DiurnalArrivals / FlashCrowdArrivals.
struct ArrivalSpec {
  enum class Kind {
    kPoisson,
    kUniform,
    kBursty,
    kTrace,
    /// Sinusoidal day/night rate swing (DiurnalArrivals).
    kDiurnal,
    /// Steady base rate with one exponentially-decaying spike
    /// (FlashCrowdArrivals).
    kFlashCrowd,
  };
  Kind kind = Kind::kPoisson;
  /// Arrival rate (ON-phase rate for kBursty, base rate for kDiurnal /
  /// kFlashCrowd; ignored for kTrace).
  double rate_qps = 0.5;
  /// OFF-phase rate for kBursty (0 = silent gaps).
  double rate_off_qps = 0.0;
  /// Mean phase duration for kBursty.
  TimeMs mean_phase_ms = 60'000.0;
  /// kDiurnal: fractional rate swing in [0, 1] and swing period.
  double amplitude = 0.5;
  TimeMs period_ms = 3'600'000.0;
  /// kFlashCrowd: the rate jumps to rate_qps * spike_factor at
  /// spike_start_ms and decays back with time constant decay_ms.
  double spike_factor = 8.0;
  TimeMs spike_start_ms = 60'000.0;
  TimeMs decay_ms = 120'000.0;
  /// Seed for the stochastic generators (deterministic replay).
  uint64_t seed = 1;
  /// Explicit ascending timestamps for kTrace; must match the query count.
  std::vector<TimeMs> trace;

  /// @param n number of queries the spec must cover
  Status Validate(size_t n) const;
};

const char* ArrivalKindName(ArrivalSpec::Kind kind);

/// Materializes `n` arrival timestamps from the spec (ascending from 0).
Result<std::vector<TimeMs>> BuildArrivals(const ArrivalSpec& spec, size_t n);

/// Serving-mode configuration (see SimEngine::Serve).
struct ServeConfig {
  ArrivalSpec arrivals;
  /// Queries splitting into at most this many bucket sub-queries are
  /// classified kInteractive; larger ones kBatch.
  size_t interactive_max_parts = 8;
  /// Load-shedding bounds, both 0 = admit everything (unbounded buffer).
  /// A new arrival is shed when admitting it would leave more than
  /// max_pending_queries queries or max_pending_objects buffered query
  /// objects in the workload manager.
  size_t max_pending_queries = 0;
  uint64_t max_pending_objects = 0;

  Status Validate() const;
};

/// The serving front door: per-arrival admit/shed decisions. Thread-safe
/// — in a deployment arrivals land from concurrent request threads, so
/// every method takes an internal mutex.
class AdmissionController {
 public:
  explicit AdmissionController(const ServeConfig& config);

  /// Records an offered arrival and decides its fate: true = admit,
  /// false = shed. `pending_objects` / `pending_queries` describe the
  /// buffer BEFORE this query is added; `query_objects` is the candidate's
  /// own object count (so one sky-spanning query can overflow the bound by
  /// itself and be shed).
  bool Offer(uint64_t pending_objects, size_t pending_queries,
             uint64_t query_objects);

  uint64_t offered() const;
  uint64_t shed() const;

 private:
  const size_t max_pending_queries_;
  const uint64_t max_pending_objects_;

  mutable std::mutex mu_;
  uint64_t offered_ = 0;
  uint64_t shed_ = 0;
};

}  // namespace liferaft::sim

#endif  // LIFERAFT_SIM_SERVE_H_
