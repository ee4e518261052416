// Reproduces Figure 4: normalized throughput vs. normalized average
// response time trade-off curves at low and high saturation, and the
// paper's offline tolerance-threshold selection of alpha
// (sched::SelectAlpha).
//
//   Paper shapes to verify:
//   * each curve walks from the greedy corner (best throughput, worst
//     response) toward the age corner (lower throughput, better response)
//     as alpha goes 0 -> 1;
//   * with a 20% throughput tolerance, low saturation selects a high alpha
//     (paper: 1.0) and high saturation a low one (paper: 0.25).

#include "bench/bench_common.h"
#include "sched/metric.h"

namespace liferaft::bench {
namespace {

void Run() {
  Banner("Figure 4: throughput vs response trade-off curves by saturation");
  Standard s = BuildStandard();

  const double alphas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  struct CurveSpec {
    const char* label;
    double rate_qps;
  };
  // 1.2 q/s is this scaled system's high-saturation point (capacity knees
  // sit ~5x higher than the paper's; see EXPERIMENTS.md).
  const CurveSpec curves[] = {{"low (0.1 q/s)", 0.1},
                              {"high (1.2 q/s, scaled)", 1.2}};

  for (const CurveSpec& spec : curves) {
    Rng rng(4007);
    auto arrivals = *sim::PoissonArrivals(s.trace.size(), spec.rate_qps,
                                         &rng);
    std::vector<sched::TradeoffPoint> curve;
    for (double alpha : alphas) {
      auto m = RunShared(s.catalog.get(), MakeLifeRaft(*s.catalog, alpha),
                         s.trace, arrivals);
      curve.push_back(
          sched::TradeoffPoint{alpha, m.throughput_qps, m.avg_response_ms});
    }
    double max_tp = 0, max_resp = 0;
    for (const auto& p : curve) {
      max_tp = std::max(max_tp, p.throughput_qps);
      max_resp = std::max(max_resp, p.avg_response_ms);
    }
    Table table({"alpha", "throughput_norm", "response_norm",
                 "throughput_qps", "avg_response_s"});
    for (const auto& p : curve) {
      table.AddRow({Table::Num(p.alpha, 2),
                    Table::Num(p.throughput_qps / max_tp, 3),
                    Table::Num(p.avg_response_ms / max_resp, 3),
                    Table::Num(p.throughput_qps, 3),
                    Table::Num(p.avg_response_ms / 1000.0, 0)});
    }
    std::printf("saturation %s:\n%s\n", spec.label,
                table.ToText().c_str());

    auto alpha = sched::SelectAlpha(curve, 0.2);
    if (alpha.ok()) {
      std::printf(
          "alpha selected at 20%% throughput tolerance: %.2f (paper: %s)\n\n",
          *alpha, spec.rate_qps < 0.3 ? "1.0 at low saturation"
                                      : "0.25 at high saturation");
    }
  }
}

}  // namespace
}  // namespace liferaft::bench

int main() {
  liferaft::bench::Run();
  return 0;
}
