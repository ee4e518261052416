#!/usr/bin/env python3
"""Compares two sets of bench_e2e reports against BENCHMARK.json's bounds.

    python3 bench_e2e/compare_runs.py SET_A/*.json -- SET_B/*.json
    python3 bench_e2e/compare_runs.py --self-test

Each file is one report written by `bench_e2e --out` (run.py keeps them in
.bench_build/runs/). For every (workload, metric) the script prints each
set's median and interquartile range (statistics.quantiles, n=4) and a
verdict for B against A:

  ok          B's median is no worse than A's by more than the bound
  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  either set's spread (IQR / median) exceeds the bound, and not
              every B run beats every A run
  -           the metric has no bound (per-layer metrics)

Runs that failed a correctness check are listed as errors. Exit status is 1
when there is a regression or an error, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds(path):
    spec = json.loads(Path(path).read_text())
    bounds = {}
    for m in spec.get("end_to_end", []):
        bounds[m["name"]] = (m["better"], m["bound"])
    for m in spec.get("per_layer", []):
        bounds[m["name"]] = (m["better"], None)
    return bounds


def load_reports(paths):
    """Returns ({(workload, metric): [values]}, [error strings])."""
    values, errors = {}, []
    for p in paths:
        r = json.loads(Path(p).read_text())
        if not r.get("correct", False) or r.get("failed", 0) != 0:
            errors.append(f"{p}: {r.get('failed')} of {r.get('attempted')} "
                          "queries failed")
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values, errors


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, q[2] - q[0]


def compare(a, b, bounds):
    """Yields (workload, metric, med_a, iqr_a, med_b, iqr_b, verdict)."""
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        med_a, iqr_a = summary(a[key])
        med_b, iqr_b = summary(b[key])
        better, bound = bounds.get(metric, ("lower", None))
        verdict = "-"
        if bound is not None:
            sign = 1.0 if better == "lower" else -1.0
            base = abs(med_a) if med_a != 0 else 1.0
            worse = sign * (med_b - med_a) / base
            spread = max(iqr_a / abs(med_a) if med_a else 0.0,
                         iqr_b / abs(med_b) if med_b else 0.0)
            b_wins = all(sign * (vb - va) < 0 for va in a[key]
                         for vb in b[key])
            if spread > bound and not b_wins:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
        yield workload, metric, med_a, iqr_a, med_b, iqr_b, verdict


def run(argv, out=sys.stdout):
    bench = DEFAULT_BENCHMARK
    if "--benchmark" in argv:
        i = argv.index("--benchmark")
        bench = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    set_a, set_b = argv[:cut], argv[cut + 1:]
    if not set_a or not set_b:
        print("error: both sets need at least one report", file=sys.stderr)
        return 2
    bounds = load_bounds(bench)
    a, errors_a = load_reports(set_a)
    b, errors_b = load_reports(set_b)
    print(f"{'workload':16} {'metric':28} {'median A':>12} {'IQR A':>10} "
          f"{'median B':>12} {'IQR B':>10}  verdict", file=out)
    failing = False
    for row in compare(a, b, bounds):
        w, m, ma, ia, mb, ib, verdict = row
        print(f"{w:16} {m:28} {ma:12.5g} {ia:10.4g} {mb:12.5g} {ib:10.4g}  "
              f"{verdict}", file=out)
        failing |= verdict == "REGRESSION"
    for e in errors_a + errors_b:
        print(f"error: {e}", file=out)
    return 1 if failing or errors_a or errors_b else 0


def self_test():
    import io
    import tempfile
    import unittest

    def report(workload, metrics, failed=0):
        return {"workload": workload, "correct": failed == 0,
                "attempted": 100, "failed": failed,
                "metrics": {k: {"value": v, "unit": "x"}
                            for k, v in metrics.items()}}

    class CompareRunsTest(unittest.TestCase):
        def setUp(self):
            self.dir = Path(tempfile.mkdtemp())
            bench = {"end_to_end": [
                {"name": "qps", "unit": "1/s", "better": "higher",
                 "bound": 0.1},
                {"name": "p99", "unit": "ms", "better": "lower",
                 "bound": 0.1}],
                "per_layer": [{"name": "layer", "unit": "%",
                               "better": "lower"}]}
            self.bench = self.dir / "BENCHMARK.json"
            self.bench.write_text(json.dumps(bench))
            self.n = 0

        def write(self, reports):
            paths = []
            for r in reports:
                self.n += 1
                p = self.dir / f"r{self.n}.json"
                p.write_text(json.dumps(r))
                paths.append(str(p))
            return paths

        def verdicts(self, a, b):
            out = io.StringIO()
            code = run(self.write(a) + ["--"] + self.write(b) +
                       ["--benchmark", str(self.bench)], out)
            rows = {}
            for line in out.getvalue().splitlines()[1:]:
                if line.startswith("error:"):
                    continue
                parts = line.split()
                rows[parts[1]] = parts[-1]
            return code, rows, out.getvalue()

        def steady(self, qps, p99=50.0, n=5, failed=0):
            return [report("w", {"qps": qps * (1 + 0.001 * i),
                                 "p99": p99 * (1 + 0.001 * i),
                                 "layer": 3.0}, failed)
                    for i in range(n)]

        def test_same_distribution_is_ok(self):
            code, rows, _ = self.verdicts(self.steady(100), self.steady(100))
            self.assertEqual(code, 0)
            self.assertEqual(rows, {"qps": "ok", "p99": "ok", "layer": "-"})

        def test_direction_matters(self):
            # qps up 20% and p99 down 20% are both improvements.
            code, rows, _ = self.verdicts(self.steady(100, 50),
                                          self.steady(120, 40))
            self.assertEqual(code, 0)
            self.assertEqual(rows["qps"], "ok")
            self.assertEqual(rows["p99"], "ok")

        def test_regression_beyond_bound(self):
            code, rows, _ = self.verdicts(self.steady(100, 50),
                                          self.steady(85, 60))
            self.assertEqual(code, 1)
            self.assertEqual(rows["qps"], "REGRESSION")
            self.assertEqual(rows["p99"], "REGRESSION")

        def test_within_bound_is_ok(self):
            code, rows, _ = self.verdicts(self.steady(100), self.steady(95))
            self.assertEqual(code, 0)
            self.assertEqual(rows["qps"], "ok")

        def test_wide_spread_is_unresolved(self):
            noisy = [report("w", {"qps": v, "p99": 50.0, "layer": 1.0})
                     for v in (60, 80, 100, 120, 140)]
            code, rows, _ = self.verdicts(noisy, self.steady(90))
            self.assertEqual(rows["qps"], "unresolved")
            self.assertEqual(code, 0)

        def test_spread_resolved_when_b_always_better(self):
            noisy = [report("w", {"qps": v, "p99": 50.0, "layer": 1.0})
                     for v in (60, 70, 80, 90, 100)]
            _, rows, _ = self.verdicts(noisy, self.steady(200))
            self.assertEqual(rows["qps"], "ok")

        def test_failed_runs_are_errors(self):
            code, _, text = self.verdicts(self.steady(100),
                                          self.steady(100, failed=1))
            self.assertEqual(code, 1)
            self.assertIn("error:", text)

        def test_workloads_compare_separately(self):
            a = self.steady(100) + [report("v", {"qps": 10.0, "p99": 1.0,
                                                 "layer": 0.0})] * 3
            b = self.steady(100) + [report("v", {"qps": 5.0, "p99": 1.0,
                                                 "layer": 0.0})] * 3
            out = io.StringIO()
            code = run(self.write(a) + ["--"] + self.write(b) +
                       ["--benchmark", str(self.bench)], out)
            lines = out.getvalue().splitlines()
            self.assertEqual(code, 1)
            self.assertTrue(any(l.startswith("v ") and "REGRESSION" in l
                                for l in lines))
            self.assertTrue(any(l.startswith("w ") and l.split()[1] == "qps"
                                and l.endswith("ok") for l in lines))

    suite = unittest.TestLoader().loadTestsFromTestCase(CompareRunsTest)
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(run(sys.argv[1:]))
