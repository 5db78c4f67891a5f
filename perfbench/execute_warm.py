"""``execute_warm``: the two fast execution tiers alone.

Set-up compiles each kernel, translates its closures and builds its
``.so`` in a fresh native cache.  Trials then repeat
``simulate(backend="compiled")`` and ``simulate(backend="native")`` on
fixed inputs.  The compile pipeline does nothing in the timed window,
and the native cache must record zero gcc builds there.  Native calls
cost a flat few tens of microseconds whatever the kernel's cycle count,
so the ctypes boundary is what the native tier's times see.

The workload's main tier is the compiled-closure simulator, its second
tier the native ``.so``.  A sample is one or more passes over the corpus
on one tier, calibrated as a whole (see ``common.Calibrator``): every
call in it is scaled by the sample's factor.  The C size and the
baseline cycles come from one baseline compile per kernel, outside every
timed window.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections import defaultdict
from statistics import median

from common import (BASE, OPT, SETUP_CAL_REPEATS, Calibrator, compile_kernel,
                    isolate_caches, kernels, matches_golden, result_metrics,
                    same_outputs)

SETUP_REPS = 5
#: Corpus passes per sample: a simulator pass is about 45 ms, a native
#: pass about 0.4 ms.
SAMPLE_PASSES = {"compiled": 1, "native": 10}
#: Samples per trial: about 0.7 s on the simulator, 0.2 s native (the
#: native times spread far less); the heap is collected between trials.
TRIAL_SAMPLES = {"compiled": 15, "native": 40}


def _setup(corpus, sandbox) -> dict:
    from repro import native

    native.configure(cache_dir=sandbox.fresh_dir("native"))
    results = {}
    for kernel in corpus:
        result = compile_kernel(kernel, OPT)
        result.compiled_program()
        result.native_program()
        results[kernel.name] = result
    return results


def _sample(corpus, results, inputs, reference, backend, calibrator,
            times, tally) -> None:
    """One sample: appends to ``times`` each kernel's mean calibrated
    seconds per call in it (a mean, not every call, so the memory the
    run holds does not grow with the number of calls it makes)."""
    raw = defaultdict(float)
    for _ in range(SAMPLE_PASSES[backend]):
        for kernel in corpus:
            t0 = time.perf_counter()
            run_ = results[kernel.name].simulate(inputs[kernel.name],
                                                 backend=backend)
            raw[kernel.name] += time.perf_counter() - t0
            expected = reference[(kernel.name, backend)]
            tally.check(same_outputs(run_.outputs, expected.outputs)
                        and run_.report.total == expected.report.total,
                        f"{kernel.name}/{backend}: warm run differs from "
                        "the verified run")
    factor = calibrator.factor() / SAMPLE_PASSES[backend]
    for name, elapsed in raw.items():
        times[(name, backend)].append(elapsed * factor)


def run(seed: int, seconds: float, sandbox, tally) -> dict:
    from repro import native

    isolate_caches(sandbox)
    corpus = kernels()
    calibrator = Calibrator(numeric=True, repeats=SETUP_CAL_REPEATS)
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        results = _setup(corpus, sandbox)
        setups.append((time.perf_counter() - t0)
                      * calibrator.factor(SETUP_CAL_REPEATS))

    # Outside every timed window: inputs, goldens, the baseline builds
    # for the cycle speed-up and the C size, and one verified run per
    # tier.
    inputs = {k.name: list(k.inputs(seed)) for k in corpus}
    reference = {}
    cycles = {}
    c_bytes = 0
    for kernel in corpus:
        golden = kernel.golden(inputs[kernel.name])
        for backend in ("compiled", "native"):
            run_ = results[kernel.name].simulate(inputs[kernel.name],
                                                 backend=backend)
            tally.check(matches_golden(run_.outputs, golden,
                                       kernel.tolerance),
                        f"{kernel.name}/{backend}: output differs from the "
                        "MATLAB interpreter")
            reference[(kernel.name, backend)] = run_
        baseline = compile_kernel(kernel, BASE)
        base = baseline.simulate(inputs[kernel.name], backend="compiled")
        tally.check(matches_golden(base.outputs, golden, kernel.tolerance),
                    f"{kernel.name}/baseline: output differs from the "
                    "MATLAB interpreter")
        cycles[(kernel.name, OPT)] = \
            reference[(kernel.name, "compiled")].report.total
        cycles[(kernel.name, BASE)] = base.report.total
        c_bytes += sum(len(build.c_source().encode("utf-8"))
                       for build in (results[kernel.name], baseline))

    builds_before = native.stats()["builds"]
    times = defaultdict(list)
    trials = 0
    deadline = time.perf_counter() + seconds
    while not trials or time.perf_counter() < deadline:
        for backend in ("compiled", "native"):
            gc.collect()
            for _ in range(TRIAL_SAMPLES[backend]):
                _sample(corpus, results, inputs, reference, backend,
                        calibrator, times, tally)
        trials += 1
    tally.invariant(native.stats()["builds"] == builds_before,
                    "execute_warm: gcc builds inside the warm window")
    tally.invariant(threading.active_count() == 1,
                    "execute_warm: a thread ran beside the calls")

    print(f"execute_warm: {trials} trials, calibration loop median "
          f"{median(calibrator.loops) * 1e3:.3f} ms", file=sys.stderr)
    return result_metrics(
        setup_s=median(setups), tally=tally, corpus=corpus, times=times,
        tiers=("compiled", "native"), cycles=cycles, c_bytes=c_bytes)
