"""Shared pieces of the benchmark: calibration, the per-run sandbox,
kernels and output checks, and the result document.

Every helper here is benchmark-side.  Nothing in ``src/`` is patched or
instrumented: the workloads and the traced run only call the public
functions of each layer and time those calls from the outside.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import shutil
import tempfile
import time
from pathlib import Path
from statistics import geometric_mean, median

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for one run: disk caches, native ``.so`` files, the
#: serve socket and gcc's temporaries all live here, inside the
#: checkout, and are removed when the run ends.
SCRATCH_PARENT = ROOT / ".perfbench_tmp"

OPT = ("optimized", "vliw_simd_dsp")
BASE = ("baseline", "generic_scalar_dsp")
CONFIGS = (OPT, BASE)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- calibration ----------------------------------------------------------

#: Calibrated seconds are seconds on a machine that runs the calibration
#: loop in exactly this long (about 1 ms on the 2-vCPU sandbox when it
#: runs uncontended, up to about 1.9 ms when it does not); the numeric
#: loop adds about as much again.
CAL_REF_S = {False: 0.001, True: 0.002}
#: Calibration loops around each set-up (see ``Calibrator.factor``).
SETUP_CAL_REPEATS = 9

#: Fixed inputs of the calibration loop, built once at import.
_CAL_DOC = {f"k{i}": [i, str(i) * 3, {"x": i / 3.0, "y": [1, 2, 3]}]
            for i in range(60)}
_CAL_TEXT = " ".join(f"word{i}={i * 7};" for i in range(200))
_CAL_PATTERN = re.compile(r"word(\d+)=(\d+);")
_CAL_LANES = np.arange(8, dtype=np.float32)


class _CalPoint:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def shifted(self, b):
        return self.a + b


def calibration_s(numeric: bool = False) -> float:
    """CPU seconds this thread spends on a fixed mix of Python work.

    The mix is a JSON round trip, a regular-expression scan, a keyed
    sort and a loop of small object allocations and method calls: the
    kind of work, spread over as much of the interpreter, that the
    compiler and the simulators do, so that it slows with a busy
    neighbour about as much as they do (a tight loop over a small dict
    slows much less, and calibrating by it left half the drift in).
    It uses nothing from the program under test, and the garbage
    collector is off while it runs, so the size of the program's heap
    cannot change its time.  It is timed with the thread's own CPU
    clock, so time this thread spends waiting (for the GIL held by
    another thread, for another process) is not counted: a program that
    burns CPU beside the benchmark cannot slow the calibration and hide
    itself.

    ``numeric`` adds small NumPy scalar and eight-lane operations, the
    other half of what the simulators spend their time on; the numeric
    mix tracks the simulator tiers closer, the plain one the compiler.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        doc = json.loads(json.dumps(_CAL_DOC))
        total = sum(int(a) for a, _b in _CAL_PATTERN.findall(_CAL_TEXT))
        sorted(doc, key=lambda key: doc[key][1])
        for i in range(1500):
            total += _CalPoint(i).shifted(i)
        if numeric:
            lanes = _CAL_LANES
            for i in range(100):
                total += float(np.float32(i * 0.5))
                lanes = np.minimum(lanes, np.full(8, i, np.float32))
                total += float(np.sum(lanes))
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Rescales wall-time samples to the reference machine speed.

    The machine the benchmark runs on shares its cores: the workloads
    run up to about 2x slower while neighbours are busy, in episodes
    from under a second to several minutes.  Every sample is bracketed
    by calibration loops, and its wall time is multiplied by
    ``CAL_REF_S`` over the mean of the two, so a sample taken while the
    machine is slow reads what it would on the machine at reference
    speed.  Costs of the program itself are unaffected: a program twice
    as slow still reads twice as slow.
    """

    def __init__(self, numeric: bool = False, repeats: int = 1):
        self._numeric = numeric
        self._last = self._loop(repeats)
        self.loops: list[float] = [self._last]

    def _loop(self, repeats: int) -> float:
        return median(calibration_s(self._numeric) for _ in range(repeats))

    def factor(self, repeats: int = 1) -> float:
        """Runs the loop that closes the sample that just ended and
        returns the factor from its wall seconds to calibrated ones;
        that loop also opens the next sample.  A sample too long or too
        rare to be one of many (a set-up) passes ``repeats`` > 1: the
        loop then runs that many times and the median counts, so one
        loop caught in a scheduler hiccup cannot rescale it."""
        now = self._loop(repeats)
        self.loops.append(now)
        factor = CAL_REF_S[self._numeric] * 2 / (self._last + now)
        self._last = now
        return factor


# -- the per-run sandbox --------------------------------------------------

class Sandbox:
    """A private directory tree for one run.

    ``REPRO_CACHE_DIR`` and ``TMPDIR`` point into it before ``repro``
    is imported, so neither a developer's cache nor another run's
    artifacts can turn a cold compile into a hit.  Workloads still
    configure the compilation and native caches explicitly through
    :meth:`fresh_dir`.
    """

    def __init__(self):
        SCRATCH_PARENT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-",
                                          dir=SCRATCH_PARENT))
        self._count = 0
        tmp = self.fresh_dir("tmp")
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
        os.environ["REPRO_CACHE_DIR"] = str(self.fresh_dir("cache"))
        # Backends are always passed explicitly; drop the env defaults
        # so nothing outside the benchmark can redirect a run.
        for name in ("REPRO_SIM_BACKEND", "REPRO_NATIVE_CACHE_DIR",
                     "REPRO_TRACE"):
            os.environ.pop(name, None)

    def fresh_dir(self, tag: str) -> Path:
        self._count += 1
        path = self.root / f"{tag}{self._count}"
        path.mkdir()
        return path

    def socket_path(self) -> str:
        """A unix socket path short enough for ``AF_UNIX`` however deep
        the checkout is: relative to the working directory."""
        path = self.fresh_dir("sock") / "serve.sock"
        return os.path.relpath(path)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass


def isolate_caches(sandbox: Sandbox) -> None:
    """Point the process-wide compilation and native caches at fresh,
    empty directories of this run."""
    from repro import cache, native
    cache.configure(cache_dir=sandbox.fresh_dir("cache"))
    native.configure(cache_dir=sandbox.fresh_dir("native"))


# -- kernels --------------------------------------------------------------

def kernels():
    from workloads import default_workloads
    return default_workloads()


def arg_spec(mtype) -> str:
    """The ``dtype:RxC`` text spec of one argument type (the request
    vocabulary of ``repro-serve``); checked to round-trip exactly."""
    from repro.cli import parse_arg_spec
    prefix = "c" if mtype.is_complex else ""
    spec = (f"{prefix}{mtype.dtype.name.lower()}:"
            f"{mtype.shape.rows}x{mtype.shape.cols}")
    if parse_arg_spec(spec) != mtype:
        raise ValueError(f"argument spec {spec!r} does not round-trip")
    return spec


def compile_kernel(kernel, config, source=None, filename="<string>"):
    """Cold compile of ``kernel`` in one configuration (no cache)."""
    from repro.compiler import CompilerOptions, compile_source
    mode, processor = config
    options = CompilerOptions.baseline() if mode == "baseline" \
        else CompilerOptions()
    return compile_source(source if source is not None else kernel.source,
                          kernel.arg_types, entry=kernel.entry,
                          processor=processor, options=options,
                          filename=filename, use_cache=False)


def matches_golden(outputs, golden, tolerance: float) -> bool:
    produced = np.atleast_2d(np.asarray(outputs[0]))
    expected = np.atleast_2d(np.asarray(golden))
    return produced.shape == expected.shape and bool(
        np.allclose(produced, expected, atol=tolerance, rtol=tolerance))


def same_outputs(outputs, reference) -> bool:
    """Exact equality of two output lists (same inputs, same program)."""
    return len(outputs) == len(reference) and all(
        np.array_equal(np.asarray(a), np.asarray(b))
        for a, b in zip(outputs, reference))


# -- the result document --------------------------------------------------

class Tally:
    """Attempted and failed operations of one run, plus broken run
    invariants (a cache hit in a cold window, a gcc build in a warm
    one).  The first few reasons are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok

    def invariant(self, ok: bool, what: str) -> bool:
        if not ok:
            self.violations += 1
            self.reasons.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 \
            and self.violations == 0

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted \
            if self.attempted else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_metrics(*, setup_s, tally, corpus, times, tiers, cycles,
                   c_bytes) -> dict:
    """The end-to-end metrics, the same set from every workload.

    ``times`` maps ``(kernel name, tier)`` to that operation's
    calibrated seconds, one per sample; ``tiers`` names the workload's
    main tier and its second tier.  Each kernel's times are reduced to
    their median before kernels are combined, so no statistic mixes the
    fast kernels with the slow ones.  ``cycles`` maps ``(kernel name,
    OPT or BASE)`` to that build's simulated cycles on the run's
    inputs, and ``c_bytes`` is the size of the C of both builds of
    every kernel: exact counts, the same in every workload.
    """
    def tier_geomean(tier) -> float:
        return geometric_mean(median(times[(k.name, tier)]) for k in corpus)

    main, second = tiers
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_ratio": metric(tally.ok_ratio, "ratio"),
        "main_geomean_s": metric(tier_geomean(main), "s"),
        "second_geomean_s": metric(tier_geomean(second), "s"),
        "corpus_pass_s": metric(
            sum(median(samples) for samples in times.values()), "s"),
        "c_bytes_total": metric(c_bytes, "bytes"),
        "cycles_opt_total": metric(
            sum(cycles[(k.name, OPT)] for k in corpus), "cycles"),
        "cycle_speedup_geomean": metric(
            geometric_mean(cycles[(k.name, BASE)] / cycles[(k.name, OPT)]
                           for k in corpus), "ratio"),
    }
