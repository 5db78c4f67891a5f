"""Differential tests: compiled-closure backend vs tree-walking reference.

The compiled backend must be *indistinguishable* from the reference
executor: bit-identical outputs, identical cycle totals, identical
per-category breakdowns, identical custom-instruction counts, identical
stdout.  These tests sweep the six example DSP kernels (optimized and
baseline pipelines), hand-written control-flow torture programs, and
hypothesis-generated kernels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import SimulationError
from repro.ir import nodes as ir
from repro.mlab.interp import MatlabInterpreter
from repro.sim.compiled import CompiledSimulator
from repro.sim.machine import Simulator

KERNEL_DIR = Path(__file__).resolve().parents[1] / "examples" / "mlab"

#: (entry, arg specs, input builder) for the six example kernels, at
#: sizes small enough to keep the double execution fast.
_KERNELS = {
    "fir": ("fir",
            [arg((1, 64), dtype="single"), arg((1, 8), dtype="single")],
            lambda rng: [rng.standard_normal((1, 64)).astype(np.float32),
                         rng.standard_normal((1, 8)).astype(np.float32)]),
    "iir_biquad": ("iir_biquad",
                   [arg((1, 64)), arg((1, 3)), arg((1, 3))],
                   lambda rng: [rng.standard_normal((1, 64)),
                                np.array([[0.2, 0.35, 0.2]]),
                                np.array([[1.0, -0.4, 0.15]])]),
    "cdot": ("cdot",
             [arg((1, 48), complex=True), arg((1, 48), complex=True)],
             lambda rng: [
                 (rng.standard_normal((1, 48))
                  + 1j * rng.standard_normal((1, 48))),
                 (rng.standard_normal((1, 48))
                  + 1j * rng.standard_normal((1, 48)))]),
    "fft_spectrum": ("fft_spectrum",
                     [arg((1, 32))],
                     lambda rng: [rng.standard_normal((1, 32))]),
    "matmul": ("matmul",
               [arg((8, 8), dtype="single"), arg((8, 8), dtype="single")],
               lambda rng: [
                   rng.standard_normal((8, 8)).astype(np.float32),
                   rng.standard_normal((8, 8)).astype(np.float32)]),
    "xcorr_kernel": ("xcorr_kernel",
                     [arg((1, 32), dtype="single"),
                      arg((1, 64), dtype="single")],
                     lambda rng: [
                         rng.standard_normal((1, 32)).astype(np.float32),
                         rng.standard_normal((1, 64)).astype(np.float32)]),
}


def assert_backends_agree(result, inputs, hotspots=False):
    """Run both executors on one compilation; everything must match
    (with ``hotspots``, the per-line cycle tables too)."""
    ref = Simulator(result.module, result.processor,
                    profile_lines=hotspots).run(list(inputs))
    comp = CompiledSimulator(result.module, result.processor,
                             profile_lines=hotspots).run(list(inputs))
    assert len(ref.outputs) == len(comp.outputs)
    for i, (a, b) in enumerate(zip(ref.outputs, comp.outputs)):
        assert np.array_equal(np.asarray(a), np.asarray(b)), \
            f"output {i} differs between backends"
        assert type(a) is type(b), \
            f"output {i} type differs: {type(a)} vs {type(b)}"
    assert ref.report.total == comp.report.total
    assert ref.report.by_category == comp.report.by_category
    assert ref.report.instruction_counts == comp.report.instruction_counts
    assert ref.stdout == comp.stdout
    assert ref.line_cycles == comp.line_cycles
    return ref, comp


def check_source(source, args, inputs, entry=None,
                 processor="vliw_simd_dsp"):
    for options in (None, CompilerOptions.baseline()):
        result = compile_source(source, args=args, entry=entry,
                                processor=processor, options=options)
        assert_backends_agree(result, inputs)


# ----------------------------------------------------------------------
# The six example DSP kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_kernel_parity(kernel, mode):
    entry, specs, make_inputs = _KERNELS[kernel]
    source = (KERNEL_DIR / f"{entry}.m").read_text()
    options = CompilerOptions.baseline() if mode == "baseline" else None
    result = compile_source(source, args=specs, entry=entry,
                            options=options)
    inputs = make_inputs(np.random.default_rng(3))
    assert_backends_agree(result, inputs)


def test_kernel_parity_scalar_processor():
    entry, specs, make_inputs = _KERNELS["fir"]
    source = (KERNEL_DIR / f"{entry}.m").read_text()
    result = compile_source(source, args=specs, entry=entry,
                            processor="generic_scalar_dsp")
    assert_backends_agree(result, make_inputs(np.random.default_rng(5)))


# ----------------------------------------------------------------------
# Control flow: break / continue / early return / while / zero-trip
# ----------------------------------------------------------------------


def test_break_and_continue_parity():
    src = """
function s = f(x)
s = 0;
for k = 1:length(x)
    if x(k) < 0
        continue;
    end
    if s > 10
        break;
    end
    s = s + x(k);
end
end
"""
    x = np.array([[3.0, -1.0, 4.0, -2.0, 5.0, 6.0, -7.0, 8.0]])
    check_source(src, [arg((1, 8))], [x])


def test_early_return_parity():
    src = """
function y = f(x)
y = 0;
for k = 1:length(x)
    if x(k) > 2
        y = x(k);
        return;
    end
    y = y + 1;
end
y = y * 10;
end
"""
    hits = np.array([[0.5, 3.0, 1.0, 1.0]])
    misses = np.array([[0.5, 0.25, 1.0, 1.5]])
    check_source(src, [arg((1, 4))], [hits])
    check_source(src, [arg((1, 4))], [misses])


def test_while_loop_parity():
    src = """
function n = f(x)
n = 0;
while x > 1
    if mod(x, 2) == 0
        x = x / 2;
    else
        x = 3 * x + 1;
    end
    n = n + 1;
end
end
"""
    check_source(src, [arg()], [27.0])


def test_zero_trip_loop_parity():
    src = """
function s = f(n)
s = 1;
for k = 1:n
    s = s + k;
end
s = s * 2;
end
"""
    check_source(src, [arg()], [0.0])
    check_source(src, [arg()], [4.0])


def test_short_circuit_guarded_load_parity():
    # The right operand of && guards an out-of-range load; it must not
    # be evaluated (nor charged) when the left side already decides.
    src = """
function s = f(x, n)
s = 0;
for k = 1:n
    if k <= length(x) && x(k) > 0
        s = s + x(k);
    end
end
end
"""
    x = np.array([[1.0, -2.0, 3.0]])
    check_source(src, [arg((1, 3)), arg()], [x, 6.0])


def test_nested_function_call_parity():
    src = """
function y = outer(x)
t = helper(x, 2.0);
y = helper(t, 0.5) + 1;
end

function y = helper(v, s)
y = v * s;
end
"""
    check_source(src, [arg()], [3.0], entry="outer")


def test_emit_stdout_parity():
    src = """
function f(x)
for k = 1:3
    fprintf('step %d: %.2f\\n', k, x * k);
end
end
"""
    check_source(src, [arg()], [1.5])


def test_math_functions_parity():
    src = """
function y = f(x)
y = sqrt(abs(x)) + sin(x) * cos(x) + exp(-abs(x)) + floor(x) ...
    + round(x) + sign(x) + mod(x, 3);
end
"""
    for value in (2.7, -1.3, 0.0):
        check_source(src, [arg()], [value])


def test_complex_arithmetic_parity():
    src = """
function y = f(a, b)
y = real(a * b + conj(a)) + abs(b) + imag(a / b);
end
"""
    check_source(src, [arg(complex=True), arg(complex=True)],
                 [1.5 + 2.5j, -0.5 + 1.0j])


def test_step_limit_guard_compiled():
    src = "function y = f()\ny = 0;\nwhile 1 > 0\ny = y + 1;\nend\nend"
    result = compile_source(src, args=[])
    simulator = CompiledSimulator(result.module, result.processor,
                                  max_steps=10000)
    with pytest.raises(SimulationError, match="step limit"):
        simulator.run([])


def test_out_of_bounds_detected_compiled():
    src = "function y = f(x, i)\ny = x(i);\nend"
    result = compile_source(src, args=[arg((1, 4)), arg()])
    simulator = CompiledSimulator(result.module, result.processor)
    with pytest.raises(SimulationError, match="out of bounds"):
        simulator.run([np.zeros((1, 4)), 9.0])


def test_compiled_program_reusable_across_runs():
    src = "function s = f(x)\ns = sum(x .* x);\nend"
    result = compile_source(src, args=[arg((1, 16))])
    simulator = CompiledSimulator(result.module, result.processor)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal((1, 16))
        ref = Simulator(result.module, result.processor).run([x])
        comp = simulator.run([x])
        assert np.array_equal(np.asarray(ref.outputs[0]),
                              np.asarray(comp.outputs[0]))
        assert ref.report.total == comp.report.total
        assert ref.report.by_category == comp.report.by_category


# ----------------------------------------------------------------------
# Loop-level charging and vector operands
# ----------------------------------------------------------------------


def _loop_suites(result) -> list[str]:
    """First line of each ``for`` suite in the entry's generated Python."""
    source = CompiledSimulator(result.module, result.processor) \
        .program.dump_source().splitlines()
    return [source[i + 1].strip() for i, line in enumerate(source)
            if line.lstrip().startswith("for ")]


def test_zero_trip_runtime_loop_leaves_no_counter_key():
    src = """
function s = f(x, n)
s = 0;
for k = 1:n
    s = s + x(k) * x(k);
end
end
"""
    result = compile_source(src, args=[arg((1, 8)), arg()])
    x = np.arange(1.0, 9.0).reshape(1, 8)
    for hotspots in (False, True):
        _, ran = assert_backends_agree(result, [x, 5.0], hotspots)
        _, skipped = assert_backends_agree(result, [x, 0.0], hotspots)
        # The loop's own instructions leave no key, not even a zero.
        assert set(skipped.report.instruction_counts) < \
            set(ran.report.instruction_counts)
        assert 0 not in skipped.report.instruction_counts.values()
        assert 0 not in skipped.report.by_category.values()
    # The loop is charged once, ahead of it, scaled by its trip count.
    assert not any(line.startswith("_a[") for line in _loop_suites(result))


def test_loop_with_break_charges_each_iteration():
    src = """
function s = f(x)
s = 0;
for k = 1:8
    s = s + x(k) * 2;
    if s > 10
        break;
    end
end
end
"""
    result = compile_source(src, args=[arg((1, 8))])
    for x in ([1.0] * 8, [4.0] * 8, [-1.0] * 8):
        assert_backends_agree(result, [np.array([x])], hotspots=True)
    # An iteration may stop early, so none is charged ahead of time.
    assert any(line.startswith("_a[") for line in _loop_suites(result))


def test_constant_nest_is_one_flush_with_exact_line_cycles():
    src = """
function y = f(x)
y = zeros(4, 6);
for i = 1:4
    for j = 1:6
        y(i, j) = x(i) * j + 1;
    end
end
end
"""
    for options in (None, CompilerOptions.baseline()):
        result = compile_source(src, args=[arg((1, 4))], options=options)
        ref, _ = assert_backends_agree(result, [np.array([[1.0, -2.0, 3.0,
                                                           0.5]])],
                                       hotspots=True)
        assert sum(ref.line_cycles.values()) == ref.report.total
        source = CompiledSimulator(result.module, result.processor) \
            .program.dump_source()
        charged = [line for line in source.splitlines()
                   if line.lstrip().startswith(("_a[", "_ic["))]
        assert charged and all(line.startswith("    _")
                               for line in charged), source


@pytest.mark.parametrize("statement", [
    "x(2:9) = x(1:8) + 1;",
    "x(1:8) = x(2:9) + 1;",
    "x(2:9) = x(8:-1:1) + 1;",
    "x(1:8) = x(9:-1:2) .* x(1:8);",
])
def test_overlapping_vector_shift_parity(statement):
    # Operand loads read as views, not copies: a store into the array
    # they view must still see the values from before the statement.
    src = f"""
function x = f(x)
{statement}
end
"""
    x = np.arange(1.0, 17.0).reshape(1, 16)
    check_source(src, [arg((1, 16))], [x])
    golden = MatlabInterpreter(src).call("f", [x.copy()], nargout=1)
    result = compile_source(src, args=[arg((1, 16))])
    assert any(isinstance(stmt, ir.VecStore) for stmt in
               ir.walk_statements(result.module.function(
                   result.module.entry).body))
    run = result.simulate([x], backend="compiled")
    assert np.array_equal(run.outputs[0], np.asarray(golden[0]))


# ----------------------------------------------------------------------
# Hypothesis-generated programs
# ----------------------------------------------------------------------

_ops = st.sampled_from(["+", "-", ".*"])
_chain = st.lists(st.tuples(_ops, st.sampled_from(["a", "b", "2", "0.5"])),
                  min_size=1, max_size=4)


def _render_chain(chain) -> str:
    expr = "a"
    for op, operand in chain:
        expr = f"({expr} {op} {operand})"
    return expr


@given(_chain, st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_elementwise_program_parity(chain, n, seed):
    source = f"function y = f(a, b)\ny = {_render_chain(chain)};\nend"
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, n)), rng.standard_normal((1, n))]
    check_source(source, [arg((1, n)), arg((1, n))], inputs)


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_reduction_program_parity(n, seed):
    source = """
function s = f(a, b)
s = 0;
for k = 1:length(a)
    s = s + a(k) * b(k);
end
end
"""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, n)), rng.standard_normal((1, n))]
    check_source(source, [arg((1, n)), arg((1, n))], inputs)


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_sliding_window_program_parity(n, m, seed):
    source = """
function y = f(x, h)
N = length(x);
M = length(h);
y = zeros(1, N);
for i = 1:N
    acc = 0;
    kmax = min(i, M);
    for k = 1:kmax
        acc = acc + h(k) * x(i - k + 1);
    end
    y(i) = acc;
end
end
"""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, n)), rng.standard_normal((1, m))]
    check_source(source, [arg((1, n)), arg((1, m))], inputs)
