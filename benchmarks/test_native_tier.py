"""Native execution tier — wall clock against the simulator.

For every E1 kernel, measures one simulation on the compiled-closure
simulator and one run of the native ``.so`` tier (cold — including the
gcc build — and warm — the in-process ctypes
dispatch after the artifact is cached), checks the native outputs
against the golden MATLAB interpreter, and records the per-kernel
trajectory into ``benchmarks/results/BENCH_native.json``.

The acceptance floor from the ISSUE: the dense/transform kernels
(matmul, fft) must run at least ``MIN_FAST_SPEEDUP`` x faster warm-native
than on the compiled-closure backend (the observed band is far higher —
see the recorded JSON — but the assertion stays conservative so slower
CI hosts do not flap).
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest
from workloads import default_workloads

from repro.compiler import compile_source
from repro.native import NativeCache, NativeProgram

PROCESSOR = "vliw_simd_dsp"

HAVE_GCC = shutil.which("gcc") is not None
pytestmark = pytest.mark.skipif(
    not HAVE_GCC, reason="native tier requires a host C compiler (gcc)")

#: Kernels the ISSUE names as the 10x-class beneficiaries; asserted
#: conservatively, actual ratios land in BENCH_native.json.
FAST_KERNELS = ("matmul", "fft")
MIN_FAST_SPEEDUP = 5.0

#: Warm native calls are microseconds; average over a batch so the
#: perf_counter granularity does not dominate.
WARM_CALLS = 20

HEADERS = ["kernel", "compiled_ms", "native_cold_ms", "native_warm_ms",
           "native_vs_compiled"]


def test_native_tier_wallclock(benchmark, record_row, record_native_bench,
                               tmp_path):
    """Simulator vs native wall clock, cold vs warm cache, per kernel."""

    def measure():
        speedups = {}
        for workload in default_workloads():
            result = compile_source(workload.source,
                                    args=workload.arg_types,
                                    entry=workload.entry,
                                    processor=PROCESSOR)
            inputs = workload.inputs(seed=11)
            golden = workload.golden(inputs)

            result.compiled_program()      # translate outside the timer
            t0 = time.perf_counter()
            comp = result.simulate(list(inputs), backend="compiled")
            comp_wall = time.perf_counter() - t0

            # Cold: a private empty cache directory, so the timer spans
            # the gcc -shared build plus the dlopen.
            cold_cache = NativeCache(cache_dir=tmp_path / workload.name)
            t0 = time.perf_counter()
            program = NativeProgram(result.module, result.processor,
                                    cache=cold_cache)
            native = program.run(list(inputs))
            cold_wall = time.perf_counter() - t0
            assert cold_cache.stats()["builds"] == 1

            # Warm: the library is already mapped; pure dispatch.
            t0 = time.perf_counter()
            for _ in range(WARM_CALLS):
                native = program.run(list(inputs))
            warm_wall = (time.perf_counter() - t0) / WARM_CALLS

            for label, run in (("compiled", comp), ("native", native)):
                produced = np.asarray(run.outputs[0])
                assert np.allclose(produced, golden,
                                   atol=workload.tolerance,
                                   rtol=workload.tolerance), \
                    f"{workload.name} ({label}): mismatch vs golden"

            speedup = comp_wall / warm_wall
            speedups[workload.name] = speedup
            record_row("N1 native tier wall clock (simulator vs native)",
                       HEADERS,
                       kernel=workload.name,
                       compiled_ms=f"{comp_wall * 1e3:.2f}",
                       native_cold_ms=f"{cold_wall * 1e3:.2f}",
                       native_warm_ms=f"{warm_wall * 1e3:.4f}",
                       native_vs_compiled=f"{speedup:.0f}x")
            record_native_bench(workload.name,
                                compiled_wall_s=round(comp_wall, 6),
                                native_cold_wall_s=round(cold_wall, 6),
                                native_warm_wall_s=round(warm_wall, 9),
                                native_speedup_vs_compiled=round(speedup, 1))
        return speedups

    speedups = benchmark.pedantic(measure, rounds=1, iterations=1)
    for kernel in FAST_KERNELS:
        assert speedups[kernel] >= MIN_FAST_SPEEDUP, \
            f"{kernel}: warm native only {speedups[kernel]:.1f}x over the " \
            f"compiled backend (need >= {MIN_FAST_SPEEDUP}x)"


def test_native_tier_cache_reuse(benchmark, record_row, tmp_path):
    """Second program over the same source performs zero gcc builds."""

    def measure():
        workload = default_workloads()[4]       # matmul
        assert workload.name == "matmul"
        result = compile_source(workload.source, args=workload.arg_types,
                                entry=workload.entry, processor=PROCESSOR)
        cache = NativeCache(cache_dir=tmp_path / "reuse")

        t0 = time.perf_counter()
        NativeProgram(result.module, result.processor, cache=cache)
        cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        NativeProgram(result.module, result.processor, cache=cache)
        warm = time.perf_counter() - t0

        stats = cache.stats()
        assert stats["builds"] == 1, "second program must not rebuild"
        assert stats["cache_hits"] == 1
        return cold, warm

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_row("N1b native tier cache reuse",
               ["step", "wall_ms"],
               step="cold build + dlopen", wall_ms=f"{cold * 1e3:.2f}")
    record_row("N1b native tier cache reuse",
               ["step", "wall_ms"],
               step="warm (in-memory hit)", wall_ms=f"{warm * 1e3:.4f}")
    assert warm < cold, "warm load must beat the cold gcc build"
