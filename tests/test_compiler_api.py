"""Unit tests for the public compiler API."""

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    ProcessorDescription,
    arg,
    available_processors,
    compile_source,
    load_processor,
)
from repro.errors import CompileError, SemanticError
from repro.semantics.shapes import Shape
from repro.semantics.types import DType

SRC = "function y = f(x)\ny = x .* 2;\nend"


def test_arg_builder():
    a = arg((2, 3), dtype="single", complex=True)
    assert a.dtype is DType.SINGLE
    assert a.is_complex
    assert a.shape == Shape(2, 3)


def test_arg_scalar_with_value():
    a = arg(value=4.0)
    assert a.is_scalar and a.value == 4.0


def test_arg_unknown_dtype():
    with pytest.raises(ValueError, match="dtype"):
        arg(dtype="quadruple")


def test_compile_returns_result_with_everything():
    result = compile_source(SRC, args=[arg((1, 8))])
    assert result.entry_name.startswith("f_")
    assert "asip" in result.c_source()
    assert "func f_" in result.ir_dump()
    assert result.pass_stats


def test_default_entry_is_first_function():
    src = "function y = first(x)\ny = second(x);\nend\n" \
          "function y = second(x)\ny = x;\nend"
    result = compile_source(src, args=[arg()])
    assert result.sprog.entry.func.name == "first"


def test_explicit_entry_selection():
    src = "function y = first(x)\ny = x;\nend\n" \
          "function y = second(x)\ny = x + 1;\nend"
    result = compile_source(src, args=[arg()], entry="second")
    assert result.simulate([1.0]).outputs[0] == 2.0


def test_script_source_rejected():
    with pytest.raises(ValueError, match="script"):
        compile_source("x = 1;", args=[])


def test_processor_by_name_and_object():
    by_name = compile_source(SRC, args=[arg((1, 8))],
                             processor="wide_simd_dsp")
    by_object = compile_source(SRC, args=[arg((1, 8))],
                               processor=load_processor("wide_simd_dsp"))
    assert by_name.processor.name == by_object.processor.name


def test_unknown_processor():
    with pytest.raises(KeyError):
        compile_source(SRC, args=[arg((1, 8))], processor="z80")


def test_available_processors_nonempty():
    names = available_processors()
    assert "vliw_simd_dsp" in names
    assert isinstance(load_processor("vliw_simd_dsp"),
                      ProcessorDescription)


def test_baseline_options_factory():
    options = CompilerOptions.baseline()
    assert options.mode == "baseline"
    assert not options.simd and not options.complex_isel


def test_simulate_and_instruction_mix():
    result = compile_source(SRC, args=[arg((1, 16))])
    x = np.arange(16.0).reshape(1, -1)
    run = result.simulate([x])
    assert np.allclose(run.outputs[0], 2 * x)
    mix = result.instruction_mix([x])
    assert mix == run.report.instruction_counts


@pytest.mark.parametrize("retired", ["reference"])
def test_simulate_rejects_the_retired_reference_backend(retired):
    # "reference" named the tree-walking simulator, which is gone.
    result = compile_source(SRC, args=[arg((1, 16))])
    with pytest.raises(ValueError) as info:
        result.simulate([np.zeros((1, 16))], backend=retired)
    assert "('compiled', 'native')" in str(info.value)


def test_intrinsics_header_accessor():
    result = compile_source(SRC, args=[arg((1, 8))])
    header = result.intrinsics_header()
    assert header.startswith("/* Generated by repro-mc")


def test_semantic_error_has_location():
    src = "function y = f(x)\ny = x + zeros(1, 3);\nend"
    with pytest.raises(SemanticError, match="fail.m:2"):
        compile_source(src, args=[arg((1, 8))], filename="fail.m")


def test_compile_errors_are_compile_error_subclasses():
    with pytest.raises(CompileError):
        compile_source("function y = f(x)\ny = {1};\nend", args=[arg()])


def test_wrong_arg_count_reported():
    with pytest.raises(SemanticError, match="expects 1"):
        compile_source(SRC, args=[arg(), arg()])


def _compiled_section(text: str) -> str:
    """The generated-functions part of a C file (after the header)."""
    marker = "/* ---- compiled MATLAB functions"
    return text[text.index(marker):]


def test_feature_flags_change_output():
    full = compile_source(SRC, args=[arg((1, 64))])
    scalar_only = compile_source(SRC, args=[arg((1, 64))],
                                 options=CompilerOptions(simd=False))
    assert "asip_vmul" in _compiled_section(full.c_source())
    assert "asip_vmul" not in _compiled_section(scalar_only.c_source())
