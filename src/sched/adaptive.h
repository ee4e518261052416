// Workload-adaptive alpha selection (paper §4): given throughput-vs-response
// trade-off curves measured offline at several saturation levels, and a
// user tolerance threshold ("how much throughput degradation is permitted"),
// pick the alpha that minimizes average response time subject to throughput
// staying within tolerance of the achievable maximum. An online controller
// estimates the current arrival rate and interpolates between the stored
// curves.

#ifndef LIFERAFT_SCHED_ADAPTIVE_H_
#define LIFERAFT_SCHED_ADAPTIVE_H_

#include <map>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace liferaft::sched {

/// One measured operating point of a trade-off curve.
struct TradeoffPoint {
  double alpha = 0.0;
  double throughput_qps = 0.0;
  double avg_response_ms = 0.0;
};

/// Picks the alpha whose response time is lowest among points with
/// throughput >= (1 - tolerance) * max throughput on the curve (paper Fig 4:
/// tolerance 0.2 selects alpha 1.0 at low saturation, 0.25 at high).
/// Returns InvalidArgument for an empty curve or tolerance outside [0, 1].
Result<double> SelectAlpha(const std::vector<TradeoffPoint>& curve,
                           double tolerance);

/// Holds trade-off curves keyed by saturation and answers "which alpha for
/// the saturation we're seeing now?". Curves are measured offline with a
/// representative workload, exactly as the paper does.
class AlphaSelector {
 public:
  /// @param tolerance permitted fractional throughput degradation in [0,1]
  explicit AlphaSelector(double tolerance) : tolerance_(tolerance) {}

  /// Registers the trade-off curve measured at `saturation_qps`.
  Status AddCurve(double saturation_qps, std::vector<TradeoffPoint> curve);

  /// Alpha for an observed arrival rate: evaluated on the registered curve
  /// with the nearest saturation. FailedPrecondition with no curves.
  Result<double> AlphaFor(double observed_qps) const;

 private:
  double tolerance_;
  std::map<double, std::vector<TradeoffPoint>> curves_;
};

/// The canonical selector for serving experiments: two trade-off curves
/// with the paper's Fig 4 shape — at low saturation every alpha sustains
/// the offered load, so the tolerance admits the response-optimal
/// cost-greedy end (alpha 1.0); at high saturation throughput collapses
/// beyond alpha 0.25, so the selector backs off to the productivity end.
/// Scenario-matrix cells with the adaptive-alpha axis enabled share this
/// one selector, so every harness exercises the same policy rather than
/// hand-rolled curves.
AlphaSelector ReferenceAlphaSelector(double tolerance = 0.2);

/// Sliding-window arrival-rate estimator driving AlphaSelector online.
///
/// Not internally synchronized: RateQps is a pure read (it never mutates,
/// so observing it from the serving loop is race-free under the caller's
/// lock), and Prune is the explicit mutating call that discards arrivals
/// older than the window — call it from wherever OnArrival is serialized
/// (sim::AdmissionController holds one estimator under its mutex).
class ArrivalRateEstimator {
 public:
  /// @param window_ms  width of the estimation window
  /// @param origin_ms  virtual time observation started (clock origin);
  ///                   the rate denominator never extends before it
  explicit ArrivalRateEstimator(TimeMs window_ms = 60'000.0,
                                TimeMs origin_ms = 0.0)
      : window_ms_(window_ms), origin_ms_(origin_ms) {}

  /// Records a query arrival. Arrivals must be non-decreasing.
  void OnArrival(TimeMs now);

  /// Arrivals per second over the trailing window. The denominator is the
  /// observed elapsed time min(window_ms, now - origin_ms), NOT the span
  /// between the arrivals themselves — a single warmup arrival therefore
  /// reads as 1 / elapsed, not as ~1000 QPS from a degenerate 1 ms span.
  /// Returns 0 before any time has elapsed. Does not mutate state.
  double RateQps(TimeMs now) const;

  /// Discards arrivals that left the trailing window (explicitly mutating;
  /// see class comment). RateQps ignores them either way — this only
  /// bounds memory.
  void Prune(TimeMs now);

  /// Arrivals currently retained (pruned + in-window); for tests and
  /// memory accounting.
  size_t retained() const { return arrivals_.size(); }

 private:
  TimeMs window_ms_;
  TimeMs origin_ms_;
  std::vector<TimeMs> arrivals_;
};

}  // namespace liferaft::sched

#endif  // LIFERAFT_SCHED_ADAPTIVE_H_
