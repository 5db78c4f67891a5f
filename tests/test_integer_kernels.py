"""Integer (fixed-point-style) kernel support.

DSP ASIPs are predominantly integer machines; the ISA library carries
i16/i32 SIMD groups.  These tests cover MATLAB's integer-dominance
promotion rule, int16/int32 lowering, and SIMD selection on integer
loops.  Arithmetic stays within range everywhere: an overflow does not
saturate as in MATLAB.  The emitted C does not wrap either (signed
overflow is undefined behaviour in C89), and the compiled simulator
raises ``OverflowError`` (ROADMAP item 4).
"""

import numpy as np
import pytest

from helpers import HAVE_GCC, golden_outputs
from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir.verifier import verify_module
from repro.semantics.inference import specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import DType, MType
from repro.frontend.parser import parse


def int_row(n, dtype="int16"):
    return arg((1, n), dtype=dtype)


def test_integer_dominates_double_literal():
    src = "function y = f(x)\ny = x * 2 + 1;\nend"
    sp = specialize_program(parse(src), "f",
                            [MType(DType.INT16, False, Shape(1, 4))])
    assert sp.entry.result_types[0].dtype is DType.INT16


def test_integer_division_promotes_to_double():
    src = "function y = f(x)\ny = x ./ 2;\nend"
    sp = specialize_program(parse(src), "f",
                            [MType(DType.INT32, False, Shape(1, 4))])
    assert sp.entry.result_types[0].dtype is DType.DOUBLE


def test_int16_scale_kernel_vectorizes():
    src = """
function y = f(x, c)
y = int16(zeros(1, length(x)));
for k = 1:length(x)
    y(k) = x(k) * c + 1;
end
end
"""
    result = compile_source(src, args=[int_row(64), arg(value=3.0)])
    verify_module(result.module)
    x = np.arange(-32, 32, dtype=np.int16).reshape(1, -1)
    run = result.simulate([x, 3.0])
    assert run.report.instruction_counts.get("vmac_i16x8", 0) > 0 or \
        run.report.instruction_counts.get("vmul_i16x8", 0) > 0
    expected = x.astype(np.int64) * 3 + 1
    assert np.array_equal(run.outputs[0].astype(np.int64), expected)


def test_int32_accumulator_dot():
    src = """
function s = f(a, b)
s = int32(0);
for k = 1:length(a)
    s = s + a(k) * b(k);
end
end
"""
    result = compile_source(src, args=[int_row(32, "int32"),
                                       int_row(32, "int32")])
    rng = np.random.default_rng(0)
    a = rng.integers(-50, 50, size=(1, 32)).astype(np.int32)
    b = rng.integers(-50, 50, size=(1, 32)).astype(np.int32)
    run = result.simulate([a, b])
    assert run.outputs[0] == int(np.sum(a.astype(np.int64) *
                                        b.astype(np.int64)))
    assert run.report.instruction_counts.get("vmac_i32x8", 0) > 0


def test_int16_input_output_roundtrip():
    src = "function y = f(x)\ny = x;\nend"
    result = compile_source(src, args=[int_row(8)])
    x = np.array([[1, -2, 3, -4, 5, -6, 7, -8]], dtype=np.int16)
    out = result.simulate([x]).outputs[0]
    assert out.dtype == np.int16
    assert np.array_equal(out, x)


def test_int16_gcc_roundtrip():
    import shutil
    if shutil.which("gcc") is None:
        pytest.skip("gcc not available")
    from repro.backend.harness import run_via_gcc
    src = """
function y = f(x)
y = int16(zeros(1, 12));
for k = 1:12
    y(k) = x(k) * 2 - 3;
end
end
"""
    result = compile_source(src, args=[int_row(12)])
    x = np.arange(12, dtype=np.int16).reshape(1, -1)
    out = run_via_gcc(result, [x])
    assert np.array_equal(np.asarray(out[0], dtype=np.int64),
                          x.astype(np.int64) * 2 - 3)


def test_mixed_int_float_loop_not_vectorized():
    src = """
function y = f(x, w)
y = zeros(1, 16);
for k = 1:16
    y(k) = double(x(k)) * w(k);
end
end
"""
    result = compile_source(src, args=[int_row(16), arg((1, 16))])
    rng = np.random.default_rng(1)
    x = rng.integers(-10, 10, size=(1, 16)).astype(np.int16)
    w = rng.standard_normal((1, 16))
    run = result.simulate([x, w])
    expected = x.astype(np.float64) * w
    assert np.allclose(np.asarray(run.outputs[0]), expected)


def test_baseline_and_optimized_agree_on_int_kernel():
    src = """
function s = f(x)
s = int32(0);
for k = 1:length(x)
    s = s + x(k) * x(k);
end
end
"""
    args = [int_row(48, "int32")]
    rng = np.random.default_rng(2)
    x = rng.integers(-30, 30, size=(1, 48)).astype(np.int32)
    optimized = compile_source(src, args=args)
    baseline = compile_source(src, args=args,
                              options=CompilerOptions.baseline())
    assert optimized.simulate([x]).outputs[0] == \
        baseline.simulate([x]).outputs[0]


@pytest.mark.parametrize("conversion, limit", [("int8", 127),
                                               ("int16", 32767)])
def test_integer_conversion_in_an_index_saturates(conversion, limit):
    # int8(k) is 127 for every k >= 127: the conversion stays in the
    # index and saturates instead of being dropped (or wrapping in C).
    n = 160 if conversion == "int8" else 8
    src = (f"function y = f(x, b)\ny = zeros(1, {n});\nfor k = 1:{n}\n"
           f"    y(k) = x({conversion}(k + b));\nend\nend\n")
    args = [arg((1, limit + 1)), arg(dtype="int32")]
    x = np.arange(1.0, limit + 2.0).reshape(1, -1)
    b = np.int32(limit - 100 if conversion == "int8" else limit - 4)
    golden = np.asarray(golden_outputs(src, "f", [x, b])[0])
    assert golden.max() == limit
    for options in (CompilerOptions(), CompilerOptions.baseline()):
        result = compile_source(src, args=args, options=options,
                                use_cache=False)
        verify_module(result.module)
        for backend in ("compiled", "native") if HAVE_GCC else \
                ("compiled",):
            run = result.simulate([x, b], backend=backend)
            np.testing.assert_array_equal(
                np.atleast_2d(np.asarray(run.outputs[0])), golden)
