"""Steadiness report: rerun workloads and compare each metric's spread
with its bound.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] \\
        [--seconds 20] [--first-seed 0] [--json out.json]

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards), one
run at a time, and prints, per workload and end-to-end metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread (quartile distance over the median) and the bound from
``BENCHMARK.json``.  A spread below a third of its bound reads
``steady``; below the bound, ``wide``; otherwise ``NOISY``.  ``setup_s``
is not held to its bound by spread, only by drift of its median between
commits, so it is marked ``info``.  Exits 1 when a run fails or any
metric is ``NOISY``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> "tuple[float, float, float, float]":
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--json", default=None,
                        help="also write every run's values here")
    options = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    noisy = False
    record = {}
    for workload in options.workloads.split(","):
        values: "dict[str, list[float]]" = {}
        t0 = time.perf_counter()
        for index in range(options.runs):
            doc = run_once(workload, options.first_seed + index,
                           options.seconds)
            if not doc["correct"]:
                raise RuntimeError(f"{workload}: incorrect run {doc}")
            for name, entry in doc["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        record[workload] = values
        print(f"\n{workload}: {options.runs} runs of {options.seconds:g} s "
              f"in {time.perf_counter() - t0:.0f} s wall")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, vals in values.items():
            mid, q1, q3, rel = spread(vals)
            bound = bounds[name]
            if name == "setup_s":
                verdict = "info"
            elif rel < bound / 3:
                verdict = "steady"
            elif rel <= bound:
                verdict = "wide"
            else:
                verdict = "NOISY"
                noisy = True
            print(f"  {name:24s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.2%} {bound:6.2f}  {verdict}")
    if options.json:
        Path(options.json).write_text(json.dumps(record, indent=1))
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
