"""Unit tests for the cycle-accurate IR executor."""

import numpy as np
import pytest

from repro.asip.isa_library import generic_scalar_dsp, vliw_simd_dsp
from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import SimulationError
from repro.sim.cost import CostModel


def run_program(source, args, inputs, processor=None, options=None):
    result = compile_source(source, args=args,
                            processor=processor or "vliw_simd_dsp",
                            options=options)
    return result.simulate(list(inputs))


# ----------------------------------------------------------------------
# Numeric semantics
# ----------------------------------------------------------------------


def test_round_half_away_from_zero():
    src = "function y = f(x)\ny = round(x);\nend"
    for value, expected in [(2.5, 3.0), (-2.5, -3.0), (2.4, 2.0),
                            (-0.5, -1.0)]:
        run = run_program(src, [arg()], [value])
        assert run.outputs[0] == expected


def test_fix_truncates_toward_zero():
    src = "function y = f(x)\ny = fix(x);\nend"
    assert run_program(src, [arg()], [2.7]).outputs[0] == 2.0
    assert run_program(src, [arg()], [-2.7]).outputs[0] == -2.0


def test_mod_follows_matlab_sign_rules():
    src = "function y = f(a, b)\ny = mod(a, b);\nend"
    assert run_program(src, [arg(), arg()], [5.0, 3.0]).outputs[0] == 2.0
    assert run_program(src, [arg(), arg()], [-5.0, 3.0]).outputs[0] == 1.0
    assert run_program(src, [arg(), arg()], [5.0, -3.0]).outputs[0] == -1.0


def test_rem_keeps_dividend_sign():
    src = "function y = f(a, b)\ny = rem(a, b);\nend"
    assert run_program(src, [arg(), arg()], [-5.0, 3.0]).outputs[0] == -2.0


def test_division_by_zero_gives_inf():
    src = "function y = f(a)\ny = a / 0;\nend"
    assert run_program(src, [arg()], [1.0]).outputs[0] == float("inf")
    assert run_program(src, [arg()], [-1.0]).outputs[0] == float("-inf")


def test_integer_cast_truncates_toward_zero():
    src = """
function y = f(a)
v = zeros(1, 3);
v(1) = 10; v(2) = 20; v(3) = 30;
y = v(int32(a));
end
"""
    # int32() rounds in MATLAB; our compiler documents round-half-away.
    assert run_program(src, [arg()], [2.4]).outputs[0] == 20.0


def test_complex_arithmetic():
    src = "function y = f(a, b)\ny = (a * b) + conj(a) / b;\nend"
    a, b = 1 + 2j, 3 - 1j
    run = run_program(src, [arg(complex=True), arg(complex=True)], [a, b])
    expected = a * b + np.conj(a) / b
    assert abs(run.outputs[0] - expected) < 1e-12


def test_abs_and_angle_of_complex():
    src = "function [m, p] = f(z)\nm = abs(z);\np = angle(z);\nend"
    result = compile_source(src, args=[arg(complex=True)])
    run = result.simulate([3 + 4j])
    assert run.outputs[0] == pytest.approx(5.0)
    assert run.outputs[1] == pytest.approx(np.angle(3 + 4j))


def test_logical_short_circuit():
    # The right side would divide by zero; && must not evaluate it...
    # (both simulator and C use short-circuit semantics).
    src = "function y = f(a)\nif a > 0 && 1 / a > 0.5\ny = 1;\nelse\n" \
          "y = 0;\nend\nend"
    assert run_program(src, [arg()], [1.0]).outputs[0] == 1.0
    assert run_program(src, [arg()], [0.0]).outputs[0] == 0.0


# ----------------------------------------------------------------------
# Control flow
# ----------------------------------------------------------------------


def test_while_loop_execution():
    src = """
function n = f(x)
n = 0;
while x > 1
    x = x / 2;
    n = n + 1;
end
end
"""
    assert run_program(src, [arg()], [64.0]).outputs[0] == 6.0


def test_nested_loop_break_only_inner():
    src = """
function s = f()
s = 0;
for i = 1:3
    for j = 1:10
        if j > 2
            break
        end
        s = s + 1;
    end
end
end
"""
    assert run_program(src, [], []).outputs[0] == 6.0


def test_loop_variable_final_value():
    src = "function y = f()\nfor k = 1:5\nend\ny = k;\nend"
    assert run_program(src, [], []).outputs[0] == 5.0


def test_negative_step_loop():
    src = """
function s = f()
s = 0;
for k = 10:-2:1
    s = s + k;
end
end
"""
    assert run_program(src, [], []).outputs[0] == 30.0  # 10+8+6+4+2


def test_emit_output_captured():
    src = "function f(x)\nfprintf('value %.1f!\\n', x);\nend"
    run = run_program(src, [arg()], [2.5])
    assert run.stdout == "value 2.5!\n"


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------


def test_out_of_bounds_read_detected():
    src = "function y = f(x, i)\ny = x(i);\nend"
    result = compile_source(src, args=[arg((1, 4)), arg()])
    with pytest.raises(SimulationError, match="out of bounds"):
        result.simulate([np.zeros((1, 4)), 9.0])


def test_out_of_bounds_write_detected():
    src = "function y = f(i)\ny = zeros(1, 4);\ny(i) = 1;\nend"
    result = compile_source(src, args=[arg()])
    with pytest.raises(SimulationError, match="out of bounds"):
        result.simulate([7.0])


def test_wrong_argument_count_detected():
    src = "function y = f(a, b)\ny = a + b;\nend"
    result = compile_source(src, args=[arg(), arg()])
    with pytest.raises(SimulationError, match="expected 2"):
        result.simulate([1.0])


def test_wrong_array_size_detected():
    src = "function y = f(x)\ny = sum(x);\nend"
    result = compile_source(src, args=[arg((1, 8))])
    with pytest.raises(SimulationError, match="expected 8"):
        result.simulate([np.zeros((1, 4))])


# ----------------------------------------------------------------------
# Cycle accounting
# ----------------------------------------------------------------------


def test_cycles_scale_with_trip_count():
    src = """
function s = f(x)
s = 0;
for k = 1:length(x)
    s = s + x(k);
end
end
"""
    options = CompilerOptions.baseline()
    small = run_program(src, [arg((1, 16))], [np.ones((1, 16))],
                        options=options).report.total
    large = run_program(src, [arg((1, 64))], [np.ones((1, 64))],
                        options=options).report.total
    assert 3.0 < large / small < 5.0  # ~4x work


def test_complex_multiply_costs_more_than_real():
    cost = CostModel(generic_scalar_dsp())
    assert cost.cycles(("binop", "mul", True)) > \
        cost.cycles(("binop", "mul", False))
    assert cost.cycles(("binop", "add", True)) == \
        2 * cost.cycles(("binop", "add", False))


def test_report_breakdown_sums_to_total():
    run = run_program("function y = f(x)\ny = sqrt(x) + 1;\nend",
                      [arg()], [4.0])
    assert sum(run.report.by_category.values()) == run.report.total


def test_intrinsic_cycles_charged():
    src = """
function s = f(a, b)
s = 0;
for k = 1:8
    s = s + a(k) * b(k);
end
end
"""
    result = compile_source(src, args=[arg((1, 8)), arg((1, 8))],
                            options=CompilerOptions(simd=False))
    run = result.simulate([np.ones((1, 8)), np.ones((1, 8))])
    mac = result.processor.instruction_by_name("mac_f64")
    assert run.report.by_category["intrinsic"] == 8 * mac.cycles


def test_column_major_input_flattening():
    src = "function y = f(A)\ny = A(2);\nend"  # linear index 2 = row 2 col 1
    result = compile_source(src, args=[arg((2, 2))])
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert result.simulate([a]).outputs[0] == 2.0


def test_outputs_reshaped_to_matlab_shape():
    src = "function A = f()\nA = zeros(2, 3);\nA(2, 3) = 7;\nend"
    result = compile_source(src, args=[])
    out = result.simulate([]).outputs[0]
    assert out.shape == (2, 3)
    assert out[1, 2] == 7.0
