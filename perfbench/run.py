"""Benchmark entry point.

    python3 perfbench/run.py --workload compile_cold --seed 0 \\
        --seconds 30 --trace 0

Runs one workload for ``--seconds`` seconds from the root of a checkout
and prints, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the workload's end-to-end metrics;
``--trace 1`` instead runs the traced layer-by-layer pass of
``layers.py`` and reports the per-layer metrics.  Inputs come from
``--seed`` only.  Exits 1 when an output is wrong, 2 when the checkout
holds no ``src/repro`` or ``benchmarks/workloads.py`` to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_cold", "execute_warm")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    options = parse_args(argv)
    if not ((ROOT / "src" / "repro").is_dir()
            and (ROOT / "benchmarks" / "workloads.py").is_file()):
        print(f"perfbench: no src/repro or benchmarks/workloads.py under "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]
    # A terminated run unwinds like a failed one: the sandbox is removed
    # and every child process is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import Sandbox, Tally

    # The sandbox sets REPRO_CACHE_DIR and TMPDIR before repro is
    # imported, so the import-time default caches are private too.
    sandbox = Sandbox()
    try:
        tally = Tally()
        if options.trace:
            import layers
            metrics = layers.run(options.workload, options.seed,
                                 options.seconds, sandbox, tally)
        else:
            module = __import__(options.workload)
            metrics = module.run(options.seed, options.seconds, sandbox,
                                 tally)
    finally:
        sandbox.close()
    for reason in tally.reasons:
        print(f"perfbench: FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
