"""The compiled-closure simulator: values against the interpreter,
cycles against ``tests/cycle_pins.json``.

Every program here runs through both pipelines (optimized and
baseline).  Its outputs must match the golden MATLAB interpreter, and
its cycle report (total, per-category breakdown, custom-instruction
counts, stdout and, when profiled, per-line cycles) must equal the pin
recorded for it.  The programs are the six example DSP kernels,
hand-written control-flow torture programs, and hypothesis families
whose shape spaces are pinned in full.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (as_program, assert_cycles_pinned,
                     assert_outputs_close, cost_variant, golden_outputs)
from repro.asip.isa_library import load_processor
from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import SimulationError
from repro.fuzz.generator import GeneratedProgram
from repro.ir import nodes as ir
from repro.sim.compiled import CompiledProgram

KERNEL_DIR = Path(__file__).resolve().parents[1] / "examples" / "mlab"

#: Pipeline mode -> options factory.
MODES = {"optimized": CompilerOptions, "baseline": CompilerOptions.baseline}

#: (entry, arg specs, input builder) for the six example kernels, at
#: sizes small enough to keep the runs fast.
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

#: Fixed-source programs, name -> (program, processor).  Each is pinned
#: as ``compiled_backend/<name>/<mode>`` for both modes.
CASES: dict[str, tuple[GeneratedProgram, str]] = {}


def _case(name, source, args, inputs, entry="f",
          processor="vliw_simd_dsp"):
    CASES[name] = (as_program(source, args, inputs, entry), processor)


def _compile(program: GeneratedProgram, processor: str, mode: str):
    return compile_source(program.source, args=program.arg_specs(),
                          entry=program.entry, processor=processor,
                          options=MODES[mode]())


def assert_matches_interpreter(program: GeneratedProgram, run) -> None:
    golden = golden_outputs(program.source, program.entry,
                            program.inputs(), program.nargout)
    single = any(spec[0] == "single" for spec in program.param_specs)
    for index, expected in enumerate(golden):
        assert_outputs_close(run.outputs[index], expected,
                             2e-4 if single else 1e-9,
                             f"output #{index}")


def check_program(pin, program, processor="vliw_simd_dsp",
                  modes=tuple(MODES), hotspots=False):
    """Run ``program`` in each mode; returns the (result, run) pairs."""
    pairs = []
    for mode in modes:
        result = _compile(program, processor, mode)
        run = result.simulate(program.inputs(), hotspots=hotspots)
        assert_matches_interpreter(program, run)
        assert_cycles_pinned(f"{pin}/{mode}", program.source, run)
        pairs.append((result, run))
    return pairs


def check_case(name, modes=tuple(MODES), hotspots=False):
    program, processor = CASES[name]
    return check_program(f"compiled_backend/{name}", program, processor,
                         modes, hotspots)


# ----------------------------------------------------------------------
# The six example DSP kernels
# ----------------------------------------------------------------------


for _name, (_entry, _specs, _make) in _KERNELS.items():
    _case(f"kernel_{_name}", (KERNEL_DIR / f"{_entry}.m").read_text(),
          _specs, _make(np.random.default_rng(3)), entry=_entry)
_case("kernel_fir_scalar_processor", (KERNEL_DIR / "fir.m").read_text(),
      _KERNELS["fir"][1], _KERNELS["fir"][2](np.random.default_rng(5)),
      entry="fir", processor="generic_scalar_dsp")


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("mode", ["optimized", "baseline"])
def test_kernel_parity(kernel, mode):
    check_case(f"kernel_{kernel}", modes=(mode,))


def test_kernel_parity_scalar_processor():
    check_case("kernel_fir_scalar_processor", modes=("optimized",))


# ----------------------------------------------------------------------
# Control flow: break / continue / early return / while / zero-trip
# ----------------------------------------------------------------------


_case("break_and_continue", """
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
""", [arg((1, 8))], [np.array([[3.0, -1.0, 4.0, -2.0, 5.0, 6.0, -7.0,
                                8.0]])])

_EARLY_RETURN = """
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
_case("early_return_hit", _EARLY_RETURN, [arg((1, 4))],
      [np.array([[0.5, 3.0, 1.0, 1.0]])])
_case("early_return_miss", _EARLY_RETURN, [arg((1, 4))],
      [np.array([[0.5, 0.25, 1.0, 1.5]])])

_case("while_loop", """
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
""", [arg()], [27.0])

_ZERO_TRIP = """
function s = f(n)
s = 1;
for k = 1:n
    s = s + k;
end
s = s * 2;
end
"""
_case("zero_trip_none", _ZERO_TRIP, [arg()], [0.0])
_case("zero_trip_four", _ZERO_TRIP, [arg()], [4.0])

# The right operand of && guards an out-of-range load; it must not be
# evaluated (nor charged) when the left side already decides.
_case("short_circuit_guarded_load", """
function s = f(x, n)
s = 0;
for k = 1:n
    if k <= length(x) && x(k) > 0
        s = s + x(k);
    end
end
end
""", [arg((1, 3)), arg()], [np.array([[1.0, -2.0, 3.0]]), 6.0])

_case("nested_function_call", """
function y = outer(x)
t = helper(x, 2.0);
y = helper(t, 0.5) + 1;
end

function y = helper(v, s)
y = v * s;
end
""", [arg()], [3.0], entry="outer")

_case("emit_stdout", """
function f(x)
for k = 1:3
    fprintf('step %d: %.2f\\n', k, x * k);
end
end
""", [arg()], [1.5])

_MATH = """
function y = f(x)
y = sqrt(abs(x)) + sin(x) * cos(x) + exp(-abs(x)) + floor(x) ...
    + round(x) + sign(x) + mod(x, 3);
end
"""
for _index, _value in enumerate((2.7, -1.3, 0.0)):
    _case(f"math_functions_{_index}", _MATH, [arg()], [_value])

_case("complex_arithmetic", """
function y = f(a, b)
y = real(a * b + conj(a)) + abs(b) + imag(a / b);
end
""", [arg(complex=True), arg(complex=True)], [1.5 + 2.5j, -0.5 + 1.0j])


def test_break_and_continue_parity():
    check_case("break_and_continue")


def test_early_return_parity():
    check_case("early_return_hit")
    check_case("early_return_miss")


def test_while_loop_parity():
    check_case("while_loop")


def test_zero_trip_loop_parity():
    check_case("zero_trip_none")
    check_case("zero_trip_four")


def test_short_circuit_guarded_load_parity():
    check_case("short_circuit_guarded_load")


def test_nested_function_call_parity():
    check_case("nested_function_call")


def test_emit_stdout_parity():
    (_, run), _ = check_case("emit_stdout")
    assert run.stdout == "step 1: 1.50\nstep 2: 3.00\nstep 3: 4.50\n"


def test_math_functions_parity():
    for index in range(3):
        check_case(f"math_functions_{index}")


def test_complex_arithmetic_parity():
    check_case("complex_arithmetic")


def test_step_limit_guard_compiled():
    src = "function y = f()\ny = 0;\nwhile 1 > 0\ny = y + 1;\nend\nend"
    result = compile_source(src, args=[])
    simulator = CompiledProgram(result.module, result.processor,
                                max_steps=10000)
    with pytest.raises(SimulationError, match="step limit"):
        simulator.run([])


def test_out_of_bounds_detected_compiled():
    src = "function y = f(x, i)\ny = x(i);\nend"
    result = compile_source(src, args=[arg((1, 4)), arg()])
    simulator = CompiledProgram(result.module, result.processor)
    with pytest.raises(SimulationError, match="out of bounds"):
        simulator.run([np.zeros((1, 4)), 9.0])


_SUM_OF_SQUARES = "function s = f(x)\ns = sum(x .* x);\nend"
_case("sum_of_squares", _SUM_OF_SQUARES, [arg((1, 16))],
      [np.random.default_rng(0).standard_normal((1, 16))])


def test_compiled_program_reusable_across_runs():
    program, _ = CASES["sum_of_squares"]
    result = _compile(program, "vliw_simd_dsp", "optimized")
    simulator = CompiledProgram(result.module, result.processor)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal((1, 16))
        run = simulator.run([x])
        assert_matches_interpreter(
            as_program(_SUM_OF_SQUARES, [arg((1, 16))], [x]), run)
        assert_cycles_pinned("compiled_backend/sum_of_squares/optimized",
                             _SUM_OF_SQUARES, run)


# ----------------------------------------------------------------------
# Loop-level charging and vector operands
# ----------------------------------------------------------------------


def _loop_suites(result) -> list[str]:
    """First line of each ``for`` suite in the entry's generated Python."""
    source = result.compiled_program().dump_source().splitlines()
    return [source[i + 1].strip() for i, line in enumerate(source)
            if line.lstrip().startswith("for ")]


_RUNTIME_LOOP = """
function s = f(x, n)
s = 0;
for k = 1:n
    s = s + x(k) * x(k);
end
end
"""
_case("runtime_loop_five", _RUNTIME_LOOP, [arg((1, 8)), arg()],
      [np.arange(1.0, 9.0).reshape(1, 8), 5.0])
_case("runtime_loop_zero", _RUNTIME_LOOP, [arg((1, 8)), arg()],
      [np.arange(1.0, 9.0).reshape(1, 8), 0.0])


def test_zero_trip_runtime_loop_leaves_no_counter_key():
    for hotspots in (False, True):
        [(result, ran)] = check_case("runtime_loop_five", ("optimized",),
                                     hotspots)
        [(_, skipped)] = check_case("runtime_loop_zero", ("optimized",),
                                    hotspots)
        # The loop's own instructions leave no key, not even a zero.
        assert set(skipped.report.instruction_counts) < \
            set(ran.report.instruction_counts)
        assert 0 not in skipped.report.instruction_counts.values()
        assert 0 not in skipped.report.by_category.values()
    # The loop is charged once, ahead of it, scaled by its trip count.
    assert not any(line.startswith("_p[") for line in _loop_suites(result))
    source = result.compiled_program().dump_source()
    assert re.search(r"^ *_p\[\d+\] \+= len\(_r\d+\)$", source, re.M), source


_LOOP_WITH_BREAK = """
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
for _index, _value in enumerate((1.0, 4.0, -1.0)):
    _case(f"loop_with_break_{_index}", _LOOP_WITH_BREAK, [arg((1, 8))],
          [np.full((1, 8), _value)])


def test_loop_with_break_charges_each_iteration():
    for index in range(3):
        [(result, _)] = check_case(f"loop_with_break_{index}",
                                   ("optimized",), hotspots=True)
    # An iteration may stop early, so none is charged ahead of time.
    assert any(re.fullmatch(r"_p\[\d+\] \+= 1", line)
               for line in _loop_suites(result))


_case("constant_nest", """
function y = f(x)
y = zeros(4, 6);
for i = 1:4
    for j = 1:6
        y(i, j) = x(i) * j + 1;
    end
end
end
""", [arg((1, 4))], [np.array([[1.0, -2.0, 3.0, 0.5]])])


def test_constant_nest_is_one_flush_with_exact_line_cycles():
    for result, run in check_case("constant_nest", hotspots=True):
        assert sum(run.line_cycles.values()) == run.report.total
        source = result.compiled_program().dump_source()
        charged = [line for line in source.splitlines()
                   if line.lstrip().startswith("_p[")]
        assert len(charged) == 1 and charged[0].startswith("    _"), \
            source


_VECTOR_SHIFTS = [
    "x(2:9) = x(1:8) + 1;",
    "x(1:8) = x(2:9) + 1;",
    "x(2:9) = x(8:-1:1) + 1;",
    "x(1:8) = x(9:-1:2) .* x(1:8);",
]
for _index, _statement in enumerate(_VECTOR_SHIFTS):
    _case(f"vector_shift_{_index}", f"""
function x = f(x)
{_statement}
end
""", [arg((1, 16))], [np.arange(1.0, 17.0).reshape(1, 16)])


@pytest.mark.parametrize("statement", _VECTOR_SHIFTS)
def test_overlapping_vector_shift_parity(statement):
    # Operand loads read as views, not copies: a store into the array
    # they view must still see the values from before the statement.
    (result, _), _ = check_case(
        f"vector_shift_{_VECTOR_SHIFTS.index(statement)}")
    assert any(isinstance(stmt, ir.VecStore) for stmt in
               ir.walk_statements(result.module.function(
                   result.module.entry).body))


# ----------------------------------------------------------------------
# Profile, then price
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_translation_reads_no_processor(kernel):
    # Two processors that differ only in cycle costs lower to the same
    # IR and translate to the same Python; only their reports differ.
    program, _ = CASES[f"kernel_{kernel}"]
    processor = load_processor("vliw_simd_dsp")
    results = [compile_source(program.source, args=program.arg_specs(),
                              entry=program.entry, processor=target,
                              use_cache=False)
               for target in (processor, cost_variant(processor))]
    first, second = results
    assert first.ir_dump() == second.ir_dump()
    for func in first.module.functions:
        assert first.compiled_program().dump_source(func.name) == \
            second.compiled_program().dump_source(func.name)
    runs = [result.simulate(program.inputs()) for result in results]
    assert runs[0].report.total < runs[1].report.total
    assert runs[0].report.instruction_counts == \
        runs[1].report.instruction_counts


def test_hotspot_run_shares_the_translation():
    program, _ = CASES["sum_of_squares"]
    result = _compile(program, "vliw_simd_dsp", "optimized")
    translated = result.compiled_program()
    plain = result.simulate(program.inputs())
    profiled = result.simulate(program.inputs(), hotspots=True)
    assert result.compiled_program() is translated
    assert plain.line_cycles is None
    assert sum(profiled.line_cycles.values()) == plain.report.total


def test_instruction_counts_are_sorted_by_name():
    [(_, run)] = check_case("kernel_fir", ("optimized",))
    names = list(run.report.instruction_counts)
    assert len(names) > 1 and names == sorted(names)


# ----------------------------------------------------------------------
# Hypothesis-generated programs
# ----------------------------------------------------------------------

_OPS = ["+", "-", ".*"]
_OPERANDS = ["a", "b", "2", "0.5"]
_chain = st.lists(st.tuples(st.sampled_from(_OPS),
                            st.sampled_from(_OPERANDS)),
                  min_size=1, max_size=4)


def elementwise_source(chain) -> str:
    expr = "a"
    for op, operand in chain:
        expr = f"({expr} {op} {operand})"
    return f"function y = f(a, b)\ny = {expr};\nend"


def elementwise_sample() -> list[tuple[list[tuple[str, str]], int]]:
    """The (chain, n) points pinned as ``elementwise/<i>/<mode>``."""
    rng = np.random.default_rng(2016)
    sample = []
    for length in (1, 1, 2, 2, 3, 3, 4, 4):
        chain = [(_OPS[rng.integers(len(_OPS))],
                  _OPERANDS[rng.integers(len(_OPERANDS))])
                 for _ in range(length)]
        sample.append((chain, int(rng.integers(1, 25))))
    return sample


@given(_chain, st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_elementwise_program_parity(chain, n, seed):
    rng = np.random.default_rng(seed)
    program = as_program(elementwise_source(chain),
                         [arg((1, n)), arg((1, n))],
                         [rng.standard_normal((1, n)),
                          rng.standard_normal((1, n))])
    for mode in MODES:
        result = _compile(program, "vliw_simd_dsp", mode)
        run = result.simulate(program.inputs())
        assert_matches_interpreter(program, run)
        assert run.report.total == sum(run.report.by_category.values())


REDUCTION = """
function s = f(a, b)
s = 0;
for k = 1:length(a)
    s = s + a(k) * b(k);
end
end
"""


def reduction_program(n: int, seed: int) -> GeneratedProgram:
    rng = np.random.default_rng(seed)
    return as_program(REDUCTION, [arg((1, n)), arg((1, n))],
                      [rng.standard_normal((1, n)),
                       rng.standard_normal((1, n))])


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_reduction_program_parity(n, seed):
    # The charge depends on the shape only, so any inputs of shape n
    # meet the pin.
    check_program(f"reduction/n={n}", reduction_program(n, seed))


SLIDING_WINDOW = """
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


def sliding_window_program(n: int, m: int, seed: int) -> GeneratedProgram:
    rng = np.random.default_rng(seed)
    return as_program(SLIDING_WINDOW, [arg((1, n)), arg((1, m))],
                      [rng.standard_normal((1, n)),
                       rng.standard_normal((1, m))])


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_sliding_window_program_parity(n, m, seed):
    check_program(f"sliding_window/n={n},m={m}",
                  sliding_window_program(n, m, seed))
