"""Every row of the custom-instruction pattern table fires.

``repro.vectorize.select.PATTERNS`` maps IR shapes onto processor
operations.  For each row, a small MATLAB program compiled for a
shipped processor that has the row's instruction must execute that
instruction, and its outputs must equal the MATLAB interpreter's.  A
row without an example here fails, so a new idiom lands with the
program that shows it selected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.asip.isa_library import load_processor
from repro.compiler import CompilerOptions, arg, compile_source
from repro.ir.verifier import verify_module
from repro.mlab.interp import MatlabInterpreter
from repro.vectorize.select import PATTERNS

SIMD = CompilerOptions()
SCALAR = CompilerOptions(simd=False)


def _elementwise(expr: str) -> str:
    return f"function y = f(a, b)\ny = {expr};\nend\n"


_ACCUMULATE = """
function s = f(a, b)
s = 0;
for k = 1:8
    s = s + a(k) * b(k);
end
end
"""

_SUM = """
function s = f(a, b)
s = 0;
for k = 1:8
    s = s + (a(k) - b(k));
end
end
"""

_MAGNITUDE = """
function p = f(a, b)
p = zeros(1, 8);
for k = 1:8
    p(k) = real(a(k)) * real(a(k)) + imag(a(k)) * imag(a(k)) + real(b(k));
end
end
"""

#: operation -> (source, complex operands?, processor, options).  Every
#: program takes two 1x8 operands, except the clip example's scalars.
EXAMPLES = {
    "vadd": (_elementwise("a + b"), False, "vliw_simd_dsp", SIMD),
    "vsub": (_elementwise("a - b"), False, "vliw_simd_dsp", SIMD),
    "vmul": (_elementwise("a .* b"), False, "vliw_simd_dsp", SIMD),
    "vdiv": (_elementwise("a ./ b"), False, "vliw_simd_dsp", SIMD),
    "vmin": (_elementwise("min(a, b)"), False, "vliw_simd_dsp", SIMD),
    "vmax": (_elementwise("max(a, b)"), False, "vliw_simd_dsp", SIMD),
    "vneg": (_elementwise("-a + b"), False, "vliw_simd_dsp", SIMD),
    "vabs": (_elementwise("abs(a) + b"), False, "vliw_simd_dsp", SIMD),
    "vconj": (_elementwise("conj(a) + b"), True, "vliw_simd_dsp", SIMD),
    "vmac": (_ACCUMULATE, False, "vliw_simd_dsp", SIMD),
    "vredadd": (_SUM, False, "vliw_simd_dsp", SIMD),
    "cmac": (_ACCUMULATE, True, "vliw_simd_dsp", SCALAR),
    "cadd": (_elementwise("a + b"), True, "vliw_simd_dsp", SCALAR),
    "csub": (_elementwise("a - b"), True, "vliw_simd_dsp", SCALAR),
    "cmul": (_elementwise("a .* b"), True, "vliw_simd_dsp", SCALAR),
    "cconj": (_elementwise("conj(a) + b"), True, "vliw_simd_dsp", SCALAR),
    "cmag2": (_MAGNITUDE, True, "vliw_simd_dsp", SCALAR),
    "clip": ("function y = f(x, lo, hi)\ny = min(max(x, lo), hi);\nend\n",
             False, "vliw_simd_dsp", SIMD),
    "mac": (_ACCUMULATE, False, "generic_scalar_dsp", SIMD),
}


def _inputs(operation: str, is_complex: bool) -> tuple[list, list]:
    """(argument types, input values) of ``operation``'s example."""
    if operation == "clip":
        return [arg(), arg(), arg()], [3.5, -1.0, 1.0]
    rng = np.random.default_rng(sorted(EXAMPLES).index(operation))
    values = []
    for _ in range(2):
        value = rng.standard_normal((1, 8)) + 0.5
        if is_complex:
            value = value + 1j * rng.standard_normal((1, 8))
        values.append(value)
    return [arg((1, 8), complex=is_complex)] * 2, values


def test_rows_name_distinct_operations():
    operations = [row.operation for row in PATTERNS]
    assert len(set(operations)) == len(operations)


@pytest.mark.parametrize("row", PATTERNS, ids=lambda row: row.operation)
def test_row_selects_its_instruction(row):
    assert row.operation in EXAMPLES, \
        f"pattern row {row.operation!r} has no coverage example"
    source, is_complex, processor, options = EXAMPLES[row.operation]
    args, inputs = _inputs(row.operation, is_complex)
    result = compile_source(source, args=args, processor=processor,
                            options=options, use_cache=False)
    verify_module(result.module)
    run = result.simulate(list(inputs))
    operations = {instr.name: instr.operation
                  for instr in load_processor(processor).instructions}
    executed = {operations[name]
                for name in run.report.instruction_counts}
    assert row.operation in executed, (row.operation, executed)
    golden = MatlabInterpreter(source).call("f", list(inputs))
    assert np.allclose(np.asarray(run.outputs[0]), np.asarray(golden[0]),
                       rtol=1e-12, atol=1e-12)
    if row.remark:
        assert any(remark.pass_name == row.group
                   and remark.message.endswith(f"for {row.remark}")
                   for remark in result.remarks)
