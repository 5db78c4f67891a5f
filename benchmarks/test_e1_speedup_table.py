"""E1 — the paper's headline table (Table 1).

Speedup of the proposed compiler over the MATLAB-Coder-style baseline on
the target ASIP (``vliw_simd_dsp``), per DSP benchmark.  The paper
reports 2x-30x across its six benchmarks; the reproduced *shape* checks
are (a) every kernel speeds up, (b) streaming SIMD-friendly kernels sit
near the top of the range, (c) the recurrence-bound IIR sits at the
bottom, and (d) both compilers' outputs are numerically correct against
the golden MATLAB interpreter.

Cycle measurements run on the compiled-closure simulator;
``test_e1_backend_wallclock`` times one warm run per kernel (outputs
checked against the golden model) and feeds the machine-readable
trajectory in ``benchmarks/results/BENCH_e1.json``, whose
``compiled_wall_s`` fields CI gates against the committed file.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from workloads import default_workloads, workload_by_name

from repro.compiler import CompilerOptions, compile_source

PROCESSOR = "vliw_simd_dsp"
KERNELS = [w.name for w in default_workloads()]

HEADERS = ["kernel", "description", "baseline_cycles", "optimized_cycles",
           "speedup"]


def _compile_pair(workload):
    optimized = compile_source(workload.source, args=workload.arg_types,
                               entry=workload.entry, processor=PROCESSOR)
    baseline = compile_source(workload.source, args=workload.arg_types,
                              entry=workload.entry, processor=PROCESSOR,
                              options=CompilerOptions.baseline())
    return optimized, baseline


@pytest.mark.parametrize("kernel", KERNELS)
def test_e1_speedup(kernel, benchmark, record_row, record_bench):
    workload = workload_by_name(kernel)
    optimized, baseline = _compile_pair(workload)
    inputs = workload.inputs(seed=11)
    golden = workload.golden(inputs)

    result_opt = benchmark(lambda: optimized.simulate(list(inputs)))
    result_base = baseline.simulate(list(inputs))

    for label, result in (("optimized", result_opt),
                          ("baseline", result_base)):
        produced = np.asarray(result.outputs[0])
        assert np.allclose(produced, golden, atol=workload.tolerance,
                           rtol=workload.tolerance), \
            f"{kernel} ({label}): numerical mismatch vs golden model"

    speedup = result_base.report.total / result_opt.report.total
    benchmark.extra_info["baseline_cycles"] = result_base.report.total
    benchmark.extra_info["optimized_cycles"] = result_opt.report.total
    benchmark.extra_info["speedup"] = round(speedup, 2)
    record_row("E1 speedup over MATLAB-Coder-style baseline (Table 1)",
               HEADERS,
               kernel=kernel, description=workload.description,
               baseline_cycles=result_base.report.total,
               optimized_cycles=result_opt.report.total,
               speedup=f"{speedup:.2f}x")
    record_bench(kernel,
                 baseline_cycles=result_base.report.total,
                 optimized_cycles=result_opt.report.total,
                 cycle_speedup=round(speedup, 2))

    # Shape assertions.  (The paper reports 2x-30x on its silicon with
    # the commercial MATLAB Coder baseline; our simulated band runs
    # ~1.4x-11x — see EXPERIMENTS.md for the calibration discussion.)
    assert speedup > 1.3, f"{kernel}: no meaningful speedup ({speedup:.2f})"
    assert speedup < 64.0, f"{kernel}: implausible speedup ({speedup:.2f})"


def test_e1_backend_wallclock(benchmark, record_row, record_bench):
    """Warm simulator wall clock per kernel, outputs against golden."""

    def measure():
        total = 0.0
        for workload in default_workloads():
            optimized, _ = _compile_pair(workload)
            inputs = workload.inputs(seed=11)
            golden = workload.golden(inputs)

            optimized.compiled_program()    # translate outside the timer
            t0 = time.perf_counter()
            run = optimized.simulate(list(inputs))
            wall = time.perf_counter() - t0

            assert np.allclose(np.asarray(run.outputs[0]), golden,
                               atol=workload.tolerance,
                               rtol=workload.tolerance), \
                f"{workload.name}: numerical mismatch vs golden model"
            total += wall
            record_bench(workload.name, compiled_wall_s=round(wall, 6))
            record_row("E1c simulator wall clock", ["kernel", "compiled_ms"],
                       kernel=workload.name,
                       compiled_ms=f"{wall * 1e3:.2f}")
        return total

    # pedantic keeps this test in the --benchmark-only selection while
    # the inner perf_counter timer measures the warm run alone.
    total = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_row("E1c simulator wall clock", ["kernel", "compiled_ms"],
               kernel="TOTAL", compiled_ms=f"{total * 1e3:.2f}")


def test_e1_band_shape(benchmark, record_row):
    """Cross-kernel shape: SIMD streaming kernels beat the IIR recurrence."""

    def compute_speedups():
        speedups = {}
        for workload in default_workloads():
            optimized, baseline = _compile_pair(workload)
            inputs = workload.inputs(seed=11)
            cycles_opt = optimized.simulate(list(inputs)).report.total
            cycles_base = baseline.simulate(list(inputs)).report.total
            speedups[workload.name] = cycles_base / cycles_opt
        return speedups

    speedups = benchmark.pedantic(compute_speedups, rounds=1, iterations=1)
    record_row("E1b speedup-band shape checks",
               ["check", "value"],
               check="min speedup (expect low, recurrence kernels)",
               value=f"{min(speedups.values()):.2f}x "
                     f"({min(speedups, key=speedups.get)})")
    record_row("E1b speedup-band shape checks",
               ["check", "value"],
               check="max speedup (expect high, streaming kernels)",
               value=f"{max(speedups.values()):.2f}x "
                     f"({max(speedups, key=speedups.get)})")
    streaming_best = max(speedups["fir"], speedups["xcorr"],
                         speedups["matmul"])
    assert streaming_best > speedups["iir"], \
        "streaming kernels must out-speed the recurrence-bound IIR"
    assert max(speedups.values()) / min(speedups.values()) > 2.0, \
        "the speedup band should span a wide range, as in the paper"
