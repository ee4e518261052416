#!/usr/bin/env python3
"""Compare two google-benchmark JSON snapshots and fail on regressions.

Usage:
  tools/bench_compare.py ANCHOR.json CURRENT.json [options]

Options:
  --threshold FRAC          real_time regression tolerance as a fraction
                            (default 0.15 = fail if current is >15% slower)
  --counter-threshold FRAC  tolerance for modeled (virtual) counters
                            (default: same as --threshold)
  --skip REGEX              skip benchmarks whose name matches REGEX; may
                            be repeated. Adds to the built-in skip list.
  --no-default-skip         drop the built-in skip list (compare noisy
                            benches too)

Comparison rules:
  * Only benchmarks present in both files are compared; entries unique to
    either side are listed as informational (new benches are expected when
    a PR adds features — they become comparable once the anchor is
    regenerated).
  * Wall-clock comparison uses `real_time` (lower is better), normalized
    to nanoseconds via `time_unit`.
  * Modeled counters listed in COUNTER_DIRECTION are also compared; they
    are deterministic virtual quantities, so any drift is a real scheduling
    change, but the same threshold is applied so an intentional schedule
    improvement elsewhere in the run does not fail the gate.
  * A benchmark matching a skip pattern is reported as SKIP and never
    fails the gate. This is the documented escape hatch for known-noisy
    benches (see DEFAULT_SKIP below and docs/BENCHMARKS.md).

Exit status: 0 = no regressions, 1 = at least one regression, 2 = usage
or unreadable input.
"""

import argparse
import json
import re
import sys

# The documented skip label for known-noisy benches. Add a pattern here
# (or pass --skip) to exempt a bench from the gate; every skip is printed
# in the report so it cannot rot silently.
DEFAULT_SKIP = [
    # The per-query baseline drains: wall time only, no gated counter, and
    # the IndexOnly drain's time moves 10-15% with where the probe
    # kernel's code sits, not with what it does (docs/BENCHMARKS.md).
    r"^BM_EngineNoShareThreads",
    r"^BM_EngineIndexOnlyThreads",
    # Measured (wall-clock) disk drain: real pread(2)s against whatever
    # device backs the runner's temp dir, so its absolute times and its
    # wall counters (wall_makespan_ms, io_p99_ms, ...) are machine facts,
    # not schedule facts. The committed anchors document the multi-volume
    # speedup (docs/BENCHMARKS.md); the modeled benches above still carry
    # every gated counter.
    r"^BM_RealIoDrain",
]

# Modeled (virtual-clock) user counters worth gating, with the direction
# that counts as a regression. Deterministic by construction — see
# docs/BENCHMARKS.md "Determinism ground rules".
COUNTER_DIRECTION = {
    "virtual_makespan_ms": "lower",   # modeled drain makespan
    "prefetch_hidden_ms": "higher",   # fetch latency hidden behind compute
    # Serving-mode (BM_EngineServe) counters. sustained_qps is the
    # completed work rate at the offered load; a drop means the serving
    # loop drains less than it used to. p99_interactive_ms is the
    # tail-latency target axis of the QPS-at-p99 methodology
    # (docs/BENCHMARKS.md): growth means interactive queries wait longer
    # behind batch work. Both are virtual-clock deterministic. `shed` and
    # p99_batch_ms are reported but not gated: at a fixed offered rate
    # shedding is a policy outcome, not a regression direction.
    "sustained_qps": "higher",
    "p99_interactive_ms": "lower",
}

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") == "aggregate":
            continue
        out[b["name"]] = b
    return out


def real_time_ns(entry):
    return entry["real_time"] * _NS_PER_UNIT.get(entry.get("time_unit", "ns"), 1.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("anchor")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15)
    parser.add_argument("--counter-threshold", type=float, default=None)
    parser.add_argument("--skip", action="append", default=[])
    parser.add_argument("--no-default-skip", action="store_true")
    args = parser.parse_args()
    counter_threshold = (
        args.counter_threshold if args.counter_threshold is not None
        else args.threshold)

    skips = list(args.skip)
    if not args.no_default_skip:
        skips += DEFAULT_SKIP
    skip_res = [re.compile(p) for p in skips]

    anchor = load_benchmarks(args.anchor)
    current = load_benchmarks(args.current)

    regressions = []
    compared = 0
    print(f"comparing {args.current} against anchor {args.anchor} "
          f"(threshold {args.threshold:.0%})")
    for name in sorted(set(anchor) & set(current)):
        if any(r.search(name) for r in skip_res):
            print(f"  SKIP  {name} (skip-listed)")
            continue
        compared += 1
        a, c = anchor[name], current[name]
        a_ns, c_ns = real_time_ns(a), real_time_ns(c)
        ratio = c_ns / a_ns if a_ns > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            regressions.append(f"{name}: real_time {a_ns:.0f} -> {c_ns:.0f} ns "
                               f"({ratio:.2f}x)")
        print(f"  {verdict:>10}  {name}  real_time {ratio:.2f}x")
        for counter, direction in COUNTER_DIRECTION.items():
            if counter not in a or counter not in c:
                continue
            av, cv = float(a[counter]), float(c[counter])
            if av <= 0:
                continue
            cratio = cv / av
            bad = (cratio > 1.0 + counter_threshold if direction == "lower"
                   else cratio < 1.0 - counter_threshold)
            tag = "REGRESSION" if bad else "ok"
            if bad:
                regressions.append(
                    f"{name}: {counter} {av:.1f} -> {cv:.1f} ({cratio:.2f}x, "
                    f"{direction} is better)")
            print(f"  {tag:>10}    {counter} {cratio:.2f}x "
                  f"({av:.1f} -> {cv:.1f})")

    for name in sorted(set(anchor) - set(current)):
        print(f"  INFO  {name} only in anchor (removed bench?)")
    for name in sorted(set(current) - set(anchor)):
        print(f"  INFO  {name} only in current (new bench; lands in the "
              f"next anchor)")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond threshold:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"\nno regressions across {compared} compared benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
