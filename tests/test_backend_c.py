"""Unit tests for the ANSI C backend and host-compilation harness."""

import subprocess

import numpy as np
import pytest

from repro.asip.header_gen import generate_header, vector_type_name
from repro.asip.isa_library import vliw_simd_dsp
from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir.types import ScalarKind

from helpers import HAVE_GCC, requires_gcc


def c_of(source, args, **kw):
    return compile_source(source, args=args, **kw).c_source()


# ----------------------------------------------------------------------
# Header generation
# ----------------------------------------------------------------------


def test_header_contains_all_intrinsics():
    processor = vliw_simd_dsp()
    header = generate_header(processor)
    for instr in processor.instructions:
        assert instr.intrinsic in header, instr.intrinsic


def test_header_vector_typedefs():
    header = generate_header(vliw_simd_dsp())
    assert "typedef struct { float v[8]; } asip_v8f32;" in header
    assert "typedef struct { double v[4]; } asip_v4f64;" in header
    assert "asip_v2c128" in header


def test_header_complex_helpers():
    header = generate_header(vliw_simd_dsp())
    for helper in ("asip_c128_mul", "asip_c128_div", "asip_c64_conj",
                   "asip_round", "asip_mod"):
        assert helper in header


def test_vector_type_name():
    assert vector_type_name(ScalarKind.F32, 8) == "asip_v8f32"
    assert vector_type_name(ScalarKind.C128, 2) == "asip_v2c128"


# ----------------------------------------------------------------------
# Emitted C structure
# ----------------------------------------------------------------------


def test_entry_signature_shape():
    text = c_of("function [s, y] = f(x)\ns = sum(x);\ny = x .* 2;\nend",
                [arg((1, 6))])
    assert "void f_double_1x6(const double *x, double *y, " \
           "double *out_s)" in text or \
           "void f_double_1x6(const double *x, " in text
    assert "*out_s = s;" in text


def test_static_helpers_entry_public():
    # Inlining is pinned off so the callee survives as a function.
    text = c_of("function y = f(x)\ny = conv(x, x);\nend", [arg((1, 4))],
                options=CompilerOptions(inline=False))
    assert "static void conv_" in text
    assert "\nvoid f_double_1x4(" in text


def test_single_site_library_call_is_inlined():
    text = c_of("function y = f(x)\ny = conv(x, x);\nend", [arg((1, 4))])
    assert "static void conv_" not in text  # merged into the caller


def test_intrinsic_calls_in_output():
    text = c_of("""
function s = f(a, b)
s = 0;
for k = 1:32
    s = s + a(k) * b(k);
end
end
""", [arg((1, 32)), arg((1, 32))])
    assert "asip_vmac_f64x4(" in text
    assert "asip_vredadd_f64x4(" in text


def test_complex_arrays_use_struct_type():
    text = c_of("function y = f(z)\ny = z .* z;\nend",
                [arg((1, 4), complex=True)])
    assert "const asip_c128 *z" in text


def test_loop_syntax():
    text = c_of("""
function y = f(x)
y = zeros(1, 9);
for k = 1:9
    y(k) = x(k);
end
end
""", [arg((1, 9))], options=CompilerOptions(simd=False))
    assert "for (k = 1; k < 10; ++k)" in text


def test_float_literals_have_decimal_points():
    text = c_of("function y = f(x)\ny = x + 3;\nend", [arg()])
    assert "3.0" in text


def test_memset_initialization_of_locals():
    text = c_of("function y = f(x)\nt = x .* 2;\ny = t + 1;\nend",
                [arg((1, 4))], options=CompilerOptions.baseline())
    assert "memset(" in text


def test_printf_for_fprintf():
    text = c_of("function f(x)\nfprintf('x=%g\\n', x);\nend", [arg()])
    assert 'printf("x=%g\\n", ' in text


def test_single_precision_types_and_suffix():
    text = c_of("function y = f(x)\ny = x .* 0.5;\nend",
                [arg((1, 4), dtype="single")])
    assert "const float *x" in text
    assert "0.5f" in text


# ----------------------------------------------------------------------
# Host compilation round trips
# ----------------------------------------------------------------------


@requires_gcc
def test_gcc_strict_ansi_accepts_output():
    from repro.backend.harness import run_via_gcc
    result = compile_source("""
function y = f(x, h)
y = conv(x, h);
end
""", args=[arg((1, 16)), arg((1, 4))])
    rng = np.random.default_rng(0)
    x, h = rng.standard_normal((1, 16)), rng.standard_normal((1, 4))
    outputs = run_via_gcc(result, [x, h])
    expected = np.convolve(x.ravel(), h.ravel()).reshape(1, -1)
    assert np.allclose(outputs[0], expected)


@requires_gcc
def test_gcc_complex_roundtrip():
    from repro.backend.harness import run_via_gcc
    result = compile_source("""
function [s, y] = f(a, b)
s = 0;
y = complex(zeros(1, 8), zeros(1, 8));
for k = 1:8
    y(k) = conj(a(k)) * b(k);
    s = s + y(k);
end
end
""", args=[arg((1, 8), complex=True), arg((1, 8), complex=True)])
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    b = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    outputs = run_via_gcc(result, [a, b])
    expected = np.conj(a) * b
    assert np.allclose(outputs[1], expected)
    assert abs(outputs[0] - expected.sum()) < 1e-9


@requires_gcc
def test_gcc_scalar_and_io():
    from repro.backend.harness import generate_main
    from repro.backend.emitter import emit_c
    import tempfile
    from pathlib import Path
    result = compile_source("""
function y = f(x)
fprintf('working on %g\\n', x);
y = x * 2;
end
""", args=[arg()])
    main = generate_main(result.module, [21.0])
    source = emit_c(result.module, result.processor, main_body=main)
    with tempfile.TemporaryDirectory() as tmp:
        c_file = Path(tmp) / "t.c"
        exe = Path(tmp) / "t"
        c_file.write_text(source)
        subprocess.run(["gcc", "-std=c89", "-pedantic", str(c_file),
                        "-o", str(exe), "-lm"], check=True)
        out = subprocess.run([str(exe)], capture_output=True, text=True)
    assert "working on 21" in out.stdout
    assert "42" in out.stdout


@requires_gcc
def test_gcc_wall_produces_no_errors():
    from repro.backend.harness import run_via_gcc
    result = compile_source(
        "function y = f(x)\ny = x + 1;\nend", args=[arg((1, 4))])
    outputs = run_via_gcc(result, [np.zeros((1, 4))],
                          flags=["-std=c89", "-Wall", "-O2", "-lm"])
    assert np.allclose(outputs[0], np.ones((1, 4)))


@requires_gcc
def test_gcc_reserved_identifier_program():
    from repro.backend.harness import run_via_gcc
    result = compile_source(
        "function y = f(register, int)\ny = register + int;\nend",
        args=[arg(), arg()])
    outputs = run_via_gcc(result, [1.0, 2.0])
    assert outputs[0] == 3.0


def test_compile_failure_reported():
    from repro.backend.harness import run_via_gcc
    from repro.errors import BackendError
    result = compile_source("function y = f(x)\ny = x;\nend", args=[arg()])
    if not HAVE_GCC:
        pytest.skip("gcc not available")
    with pytest.raises(BackendError, match="compilation failed"):
        run_via_gcc(result, [1.0], cc="gcc",
                    flags=["-std=c89", "-DSYNTAX_ERROR_FLAG(", "-lm"])
