"""Differential tests for the extended builtin set.

norm / var / std / any / all / cumsum / sort, checked interpreter vs
simulator (baseline and optimized) vs gcc on selected cases.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import InterpreterError, SemanticError

from helpers import check_program, golden_outputs

RNG = np.random.default_rng(77)


def rrow(n):
    return RNG.standard_normal((1, n))


def test_norm_real_vector():
    check_program("function y = f(x)\ny = norm(x);\nend",
                  [arg((1, 17))], [rrow(17)], with_gcc=True)


def test_norm_complex_vector_uses_cmag2():
    src = "function y = f(z)\ny = norm(z);\nend"
    z = RNG.standard_normal((1, 9)) + 1j * RNG.standard_normal((1, 9))
    result, _ = check_program(src, [arg((1, 9), complex=True)], [z])
    mix = result.instruction_mix([z])
    assert mix.get("cmag2_c128", 0) == 9


def test_norm_column_vector():
    check_program("function y = f(x)\ny = norm(x);\nend",
                  [arg((12, 1))], [RNG.standard_normal((12, 1))])


def test_norm_of_scalar_is_abs():
    check_program("function y = f(x)\ny = norm(x);\nend",
                  [arg()], [-3.5])


def test_var_and_std():
    src = "function [v, s] = f(x)\nv = var(x);\ns = std(x);\nend"
    check_program(src, [arg((1, 25))], [rrow(25)], nargout=2,
                  with_gcc=True)


def test_var_of_length_one_is_zero():
    check_program("function v = f(x)\nv = var(x);\nend",
                  [arg((1, 1))], [np.array([[3.0]])])


def test_var_rejects_complex():
    with pytest.raises(SemanticError, match="complex"):
        check_program("function v = f(z)\nv = var(z);\nend",
                      [arg((1, 4), complex=True)],
                      [np.zeros((1, 4), dtype=complex)])


@pytest.mark.parametrize("source, shape", [
    ("function y = f(z)\ny = complex(z);\nend", (1, 1)),
    ("function y = f(z)\ny = complex(z .* 2) - z;\nend", (1, 5)),
], ids=["scalar", "array"])
def test_complex_of_complex_input_keeps_it(source, shape):
    # Both sources return ``z`` itself.
    z = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    for options in (CompilerOptions(), CompilerOptions.baseline()):
        result = compile_source(source, args=[arg(shape, complex=True)],
                                options=options, use_cache=False)
        [simulated] = result.simulate([z]).outputs
        np.testing.assert_allclose(np.atleast_2d(simulated), z)
    [golden] = golden_outputs(source, "f", [z])
    np.testing.assert_allclose(golden, z)


def test_complex_of_two_args_rejects_complex_operand():
    z = np.array([[1.0 + 2.0j]])
    for source in ("function y = f(z)\ny = complex(z, 1);\nend",
                   "function y = f(z)\ny = complex(1, z);\nend"):
        with pytest.raises(InterpreterError, match="must be real"):
            golden_outputs(source, "f", [z])
        with pytest.raises(SemanticError, match="must be real"):
            compile_source(source, args=[arg(complex=True)],
                           use_cache=False)


def test_any_all_semantics():
    src = "function [a, b] = f(x)\na = any(x);\nb = all(x);\nend"
    check_program(src, [arg((1, 6))],
                  [np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])], nargout=2)
    check_program(src, [arg((1, 6))],
                  [np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])], nargout=2)
    check_program(src, [arg((1, 6))], [np.zeros((1, 6))], nargout=2)


def test_any_of_complex():
    src = "function a = f(z)\na = any(z);\nend"
    z = np.zeros((1, 4), dtype=complex)
    check_program(src, [arg((1, 4), complex=True)], [z])
    z[0, 2] = 1j
    check_program(src, [arg((1, 4), complex=True)], [z])


def test_cumsum_real_and_complex():
    check_program("function y = f(x)\ny = cumsum(x);\nend",
                  [arg((1, 15))], [rrow(15)], with_gcc=True)
    z = RNG.standard_normal((1, 7)) + 1j * RNG.standard_normal((1, 7))
    check_program("function y = f(z)\ny = cumsum(z);\nend",
                  [arg((1, 7), complex=True)], [z])


def test_cumsum_column_orientation():
    check_program("function y = f(x)\ny = cumsum(x);\nend",
                  [arg((9, 1))], [RNG.standard_normal((9, 1))])


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_sort_every_size(n):
    check_program("function y = f(x)\ny = sort(x);\nend",
                  [arg((1, n))], [rrow(n)])


def test_sort_with_duplicates_and_negatives():
    x = np.array([[3.0, -1.0, 3.0, 0.0, -1.0, 7.0]])
    check_program("function y = f(x)\ny = sort(x);\nend",
                  [arg((1, 6))], [x], with_gcc=True)


def test_sort_already_sorted_and_reversed():
    up = np.arange(8.0).reshape(1, -1)
    check_program("function y = f(x)\ny = sort(x);\nend",
                  [arg((1, 8))], [up])
    check_program("function y = f(x)\ny = sort(x);\nend",
                  [arg((1, 8))], [up[:, ::-1].copy()])


def test_median_via_sort():
    src = """
function m = f(x)
s = sort(x);
n = length(x);
h = floor(n / 2);
if mod(n, 2) == 0
    m = (s(h) + s(h + 1)) / 2;
else
    m = s(h + 1);
end
end
"""
    for n in (5, 6):
        x = rrow(n)
        result, outputs = check_program(src, [arg((1, n))], [x])
        assert np.isclose(np.asarray(outputs[0]).ravel()[0],
                          np.median(x))


def test_composition_normalize_by_norm():
    src = """
function y = f(x)
y = x ./ norm(x);
end
"""
    check_program(src, [arg((1, 20))], [rrow(20)])
