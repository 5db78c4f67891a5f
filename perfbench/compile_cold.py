"""``compile_cold``: the pipeline layers alone.

Each trial compiles every kernel cold (``use_cache=False``) to C twice:
with the full optimizer for ``vliw_simd_dsp`` and with
``CompilerOptions.baseline()`` for ``generic_scalar_dsp``.  This is what
``repro-mc``, ``repro-batch`` and every ``repro-dse`` candidate pay per
compile.  ``sim``, ``native`` and ``serve`` never run in the timed
window, and the compilation cache must record zero hits there.  Every
compile is one calibrated sample (see ``common.Calibrator``).

The workload's main tier is the optimized compile, its second tier the
baseline compile.  The cycle counts it reports come from simulating its
reference compiles once, outside the timed window.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import threading
import time
from collections import defaultdict
from statistics import median

from common import (BASE, CONFIGS, OPT, ROOT, Calibrator, compile_kernel,
                    isolate_caches, kernels, matches_golden, result_metrics)

#: What a ``repro-mc`` user pays before the first compile: interpreter
#: start, the compiler import and both processor descriptions.  The
#: fresh interpreter times itself from the moment the benchmark spawned
#: it and calibrates that time with loops of its own, run on the same
#: CPU right after, so the set-up is rescaled by the speed it ran at
#: rather than by the benchmark process's.
_SETUP_PROBE = """
import sys, time
from statistics import median
spawned, src, here = float(sys.argv[1]), sys.argv[2], sys.argv[3]
sys.path.insert(0, src)
from repro.compiler import compile_source
from repro.asip.isa_library import load_processor
for name in sys.argv[4:]:
    load_processor(name)
elapsed = time.time() - spawned
sys.path.insert(0, here)
from common import CAL_REF_S, SETUP_CAL_REPEATS, calibration_s
loop = median(calibration_s() for _ in range(SETUP_CAL_REPEATS))
print(elapsed * CAL_REF_S[False] / loop)
"""
SETUP_REPS = 11


def _setup_once() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, repr(time.time()),
         str(ROOT / "src"), str(ROOT / "perfbench"), OPT[1], BASE[1]],
        check=True, capture_output=True, text=True)
    return float(proc.stdout)


def run(seed: int, seconds: float, sandbox, tally) -> dict:
    from repro import cache

    isolate_caches(sandbox)
    setup_s = median(_setup_once() for _ in range(SETUP_REPS))
    calibrator = Calibrator()

    corpus = kernels()
    # Reference compiles (also the warm-up of lazily imported modules);
    # every timed compile must reproduce their C byte for byte.
    reference = {(k.name, cfg): compile_kernel(k, cfg)
                 for k in corpus for cfg in CONFIGS}
    reference_c = {key: result.c_source()
                   for key, result in reference.items()}

    before = cache.stats()
    times = defaultdict(list)
    trials = 0
    deadline = time.perf_counter() + seconds
    while not trials or time.perf_counter() < deadline:
        gc.collect()
        for kernel in corpus:
            for cfg in CONFIGS:
                t0 = time.perf_counter()
                try:
                    c_text = compile_kernel(kernel, cfg).c_source()
                except Exception as exc:  # counted, never fatal
                    c_text = f"{type(exc).__name__}: {exc}"
                times[(kernel.name, cfg)].append(
                    (time.perf_counter() - t0) * calibrator.factor())
                tally.check(c_text == reference_c[(kernel.name, cfg)],
                            f"{kernel.name}/{cfg[0]}: C differs from the "
                            "reference compile")
        trials += 1
    after = cache.stats()
    tally.invariant(after["hits"] == before["hits"]
                    and after["disk_hits"] == before["disk_hits"],
                    "compile_cold: cache hits inside the cold window")
    tally.invariant(threading.active_count() == 1,
                    "compile_cold: a thread ran beside the compiles")

    # Outside the window: the reference compiles must compute what the
    # MATLAB interpreter computes.
    cycles = {}
    for kernel in corpus:
        inputs = kernel.inputs(seed)
        golden = kernel.golden(inputs)
        for cfg in CONFIGS:
            run_ = reference[(kernel.name, cfg)].simulate(
                list(inputs), backend="compiled")
            tally.check(matches_golden(run_.outputs, golden,
                                       kernel.tolerance),
                        f"{kernel.name}/{cfg[0]}: output differs from the "
                        "MATLAB interpreter")
            cycles[(kernel.name, cfg)] = run_.report.total

    print(f"compile_cold: {trials} corpus trials, calibration "
          f"loop median {median(calibrator.loops) * 1e3:.3f} ms",
          file=sys.stderr)
    return result_metrics(
        setup_s=setup_s, tally=tally, corpus=corpus, times=times,
        tiers=(OPT, BASE), cycles=cycles,
        c_bytes=sum(len(text.encode("utf-8"))
                    for text in reference_c.values()))
