#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and runs one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the root of the tree (configured once,
then rebuilt incrementally); fixtures are cached in .bench_build/fixtures/
and each run's full report is kept in .bench_build/runs/. The benchmark's
`name value unit` lines are echoed, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run (its
spans go to .bench_build/traces/<workload>.json).

Exit status: 0 when the run was correct, 1 when it failed or was incorrect,
2 when the tree holds no liferaft sources to build.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
# The first run builds the library; later runs only re-check it.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=out,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                break
    if code != 0:
        tail = (BUILD / "build.log").read_text().splitlines()[-20:]
        log("error: build failed:\n" + "\n".join(tail))
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"error: no liferaft sources in {ROOT}; nothing to benchmark")
        return 2
    try:
        if not build():
            return 1
    except subprocess.TimeoutExpired:
        log("error: build timed out")
        return 1

    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    report = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--fixture-dir", str(BUILD / "fixtures"), "--out", str(report)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--traced", "--trace-json",
                str(traces / f"{args.workload}.json")]
    try:
        code, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                text=True)
    except subprocess.TimeoutExpired:
        log(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(out)
    if not report.exists():
        log(f"error: benchmark exited {code} without a report")
        return 1
    data = json.loads(report.read_text())
    result = {key: data[key] for key in ("correct", "attempted", "failed",
                                         "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and data["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
