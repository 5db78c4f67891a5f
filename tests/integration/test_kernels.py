"""Integration tests over the shipped DSP benchmark kernels.

Checks every kernel at several sizes against the golden interpreter, on
both pipelines and all three shipped processors, plus speedup sanity on
the SIMD target.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from workloads import default_workloads, kernel_source, workload_by_name

from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir.verifier import verify_module
from repro.mlab.interp import MatlabInterpreter

KERNEL_NAMES = [w.name for w in default_workloads()]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("processor", ["generic_scalar_dsp",
                                       "vliw_simd_dsp", "wide_simd_dsp"])
def test_kernel_correct_on_all_targets(kernel, processor):
    workload = workload_by_name(kernel)
    inputs = workload.inputs(seed=101)
    golden = workload.golden(inputs)
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry, processor=processor)
    verify_module(result.module)
    run = result.simulate(list(inputs))
    assert np.allclose(np.asarray(run.outputs[0]), golden,
                       atol=workload.tolerance, rtol=workload.tolerance)


@pytest.mark.parametrize("scale", [1, 2])
def test_fir_sizes(scale):
    source = kernel_source("fir")
    n = 64 * scale
    taps = 8
    args = [arg((1, n)), arg((1, taps))]
    rng = np.random.default_rng(scale)
    x = rng.standard_normal((1, n))
    h = rng.standard_normal((1, taps))
    result = compile_source(source, args=args, entry="fir")
    run = result.simulate([x, h])
    expected = np.convolve(x.ravel(), h.ravel())[:n]
    assert np.allclose(run.outputs[0].ravel(), expected)


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_fft_spectrum_sizes(n):
    source = kernel_source("fft_spectrum")
    rng = np.random.default_rng(n)
    x = rng.standard_normal((1, n))
    result = compile_source(source, args=[arg((1, n))],
                            entry="fft_spectrum")
    run = result.simulate([x])
    expected = np.abs(np.fft.fft(x.ravel())) ** 2
    assert np.allclose(run.outputs[0].ravel(), expected, atol=1e-8,
                       rtol=1e-8)


def test_fft_length_two():
    source = kernel_source("fft_spectrum")
    result = compile_source(source, args=[arg((1, 2))],
                            entry="fft_spectrum")
    run = result.simulate([np.array([[3.0, -1.0]])])
    expected = np.abs(np.fft.fft([3.0, -1.0])) ** 2
    assert np.allclose(run.outputs[0].ravel(), expected)


def test_matmul_rectangular():
    source = kernel_source("matmul")
    args = [arg((3, 7)), arg((7, 5))]
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 7))
    b = rng.standard_normal((7, 5))
    result = compile_source(source, args=args, entry="matmul")
    run = result.simulate([a, b])
    assert np.allclose(np.asarray(run.outputs[0]), a @ b)


def test_iir_stability_long_run():
    source = kernel_source("iir_biquad")
    n = 1024
    args = [arg((1, n)), arg((1, 3)), arg((1, 3))]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, n))
    b = np.array([[0.2, 0.35, 0.2]])
    a = np.array([[1.0, -0.4, 0.15]])
    result = compile_source(source, args=args, entry="iir_biquad")
    run = result.simulate([x, b, a])
    golden = MatlabInterpreter(source).call("iir_biquad", [x, b, a])[0]
    assert np.allclose(np.asarray(run.outputs[0]), np.asarray(golden))
    assert np.max(np.abs(run.outputs[0])) < 100  # filter is stable


def test_speedup_sanity_on_simd_target():
    workload = workload_by_name("xcorr")
    inputs = workload.inputs(seed=55)
    optimized = compile_source(workload.source, args=workload.arg_types,
                               entry=workload.entry)
    baseline = compile_source(workload.source, args=workload.arg_types,
                              entry=workload.entry,
                              options=CompilerOptions.baseline())
    cycles_opt = optimized.simulate(list(inputs)).report.total
    cycles_base = baseline.simulate(list(inputs)).report.total
    assert cycles_base / cycles_opt > 4.0


def test_cdot_matches_vdot():
    workload = workload_by_name("cdot")
    inputs = workload.inputs(seed=77)
    result = compile_source(workload.source, args=workload.arg_types,
                            entry=workload.entry)
    run = result.simulate(list(inputs))
    expected = np.vdot(inputs[0].ravel(), inputs[1].ravel())
    assert abs(run.outputs[0] - expected) < 1e-9 * len(inputs[0].ravel())
