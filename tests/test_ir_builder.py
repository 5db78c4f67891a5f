"""Unit tests for AST-to-IR lowering."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, arg, compile_source
from repro.errors import UnsupportedFeatureError
from repro.frontend.parser import parse
from repro.ir import nodes as ir
from repro.ir.builder import lower_program
from repro.ir.printer import format_module
from repro.ir.types import ArrayType, I32, ScalarKind, ScalarType
from repro.ir.verifier import verify_module
from repro.semantics.inference import specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import DType, MType

from helpers import check_program


def lower(source: str, entry: str, args, mode: str = "fused"):
    sprog = specialize_program(parse(source), entry, args)
    module = lower_program(sprog, mode=mode)
    verify_module(module)
    return module


def row(n: int, dtype=DType.DOUBLE, complex_=False) -> MType:
    return MType(dtype, complex_, Shape(1, n))


# ----------------------------------------------------------------------
# Structure of the lowered IR
# ----------------------------------------------------------------------


def test_entry_signature_conventions():
    src = "function [s, y] = f(x)\ns = sum(x);\ny = x .* 2;\nend"
    module = lower(src, "f", [row(6)])
    func = module.entry_function
    # Inputs first.
    assert [p.name for p in func.params] == ["x"]
    assert isinstance(func.params[0].type, ArrayType)
    # Outputs in MATLAB order: scalar then array.
    assert [p.name for p in func.outputs] == ["s", "y"]
    assert isinstance(func.outputs[0].type, ScalarType)
    assert isinstance(func.outputs[1].type, ArrayType)


def test_integer_loop_variable_narrowing():
    src = """
function y = f(x)
y = zeros(1, length(x));
for k = 1:length(x)
    y(k) = x(k);
end
end
"""
    module = lower(src, "f", [row(8)])
    func = module.entry_function
    assert func.local_type("k") == I32


def test_loop_variable_not_narrowed_when_reassigned():
    src = """
function y = f(x)
for k = 1:4
end
k = k + 0.5;
y = k;
end
"""
    module = lower(src, "f", [row(4)])
    func = module.entry_function
    assert func.local_type("k") == ScalarType(ScalarKind.F64)


def test_mutated_array_param_copied_in():
    src = """
function y = f(x)
x(1) = 0;
y = sum(x);
end
"""
    module = lower(src, "f", [row(5)])
    func = module.entry_function
    assert func.params[0].name == "x__in"
    assert isinstance(func.body[0], ir.CopyArray)
    assert func.body[0].src == "x__in" and func.body[0].dst == "x"


def test_untouched_array_param_not_copied():
    src = "function s = f(x)\ns = sum(x);\nend"
    module = lower(src, "f", [row(5)])
    func = module.entry_function
    assert func.params[0].name == "x"
    assert not any(isinstance(s, ir.CopyArray) for s in func.body)


def test_matmul_lowered_as_jki_loops():
    src = "function C = f(A, B)\nC = A * B;\nend"
    module = lower(src, "f",
                   [MType(DType.DOUBLE, False, Shape(4, 4)),
                    MType(DType.DOUBLE, False, Shape(4, 4))])
    text = format_module(module)
    # Triple nesting with a zero-init inner loop.
    assert text.count("for ") >= 4


def test_switch_lowered_to_if_chain():
    src = """
function y = f(k)
switch k
case 1
    y = 10;
case 2
    y = 20;
otherwise
    y = 0;
end
end
"""
    module = lower(src, "f", [MType.double()])
    ifs = [s for s in ir.walk_statements(module.entry_function.body)
           if isinstance(s, ir.If)]
    assert len(ifs) == 2


def test_library_function_becomes_module_function():
    src = "function y = f(x)\ny = conv(x, x);\nend"
    module = lower(src, "f", [row(6)])
    assert any(fn.source_name == "conv" for fn in module.functions)
    calls = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.Call)]
    assert len(calls) == 1


def test_fprintf_lowered_to_emit():
    src = "function f(x)\nfprintf('v=%f\\n', x);\nend"
    module = lower(src, "f", [MType.double()])
    emits = [s for s in ir.walk_statements(module.entry_function.body)
             if isinstance(s, ir.Emit)]
    assert len(emits) == 1
    assert emits[0].format == "v=%f\n"


def test_fprintf_integer_spec_rewritten():
    src = "function f(x)\nfprintf('%d\\n', x);\nend"
    module = lower(src, "f", [MType.double()])
    emit = next(s for s in ir.walk_statements(module.entry_function.body)
                if isinstance(s, ir.Emit))
    assert "%.0f" in emit.format  # %d on a double would be UB in C


def test_reserved_c_names_are_renamed():
    src = "function y = f(register)\ny = register + 1;\nend"
    module = lower(src, "f", [MType.double()])
    func = module.entry_function
    assert func.params[0].name == "register_"


def test_while_with_array_condition_rejected():
    src = "function y = f(x)\nwhile sum(x) > 0\nx = x - 1;\nend\ny = x;\nend"
    with pytest.raises(UnsupportedFeatureError, match="while"):
        lower(src, "f", [row(3)])


def test_matrix_iteration_rejected():
    src = "function s = f(A)\ns = 0;\nfor c = A\ns = s + c(1);\nend\nend"
    with pytest.raises(UnsupportedFeatureError, match="matrix columns"):
        lower(src, "f", [MType(DType.DOUBLE, False, Shape(2, 3))])


def test_naive_mode_materializes_more_loops():
    src = "function y = f(a, b)\ny = a .* b + a ./ 2;\nend"
    fused = lower(src, "f", [row(8), row(8)], mode="fused")
    naive = lower(src, "f", [row(8), row(8)], mode="naive")

    def loop_count(module):
        return sum(1 for s in ir.walk_statements(module.entry_function.body)
                   if isinstance(s, ir.ForRange))

    assert loop_count(naive) > loop_count(fused)


def test_unknown_mode_rejected():
    sprog = specialize_program(
        parse("function y = f(x)\ny = x;\nend"), "f", [MType.double()])
    with pytest.raises(ValueError, match="mode"):
        lower_program(sprog, mode="bogus")


# ----------------------------------------------------------------------
# Semantics of specific lowering rules (differential)
# ----------------------------------------------------------------------

ARGS_V6 = [MType(DType.DOUBLE, False, Shape(1, 6))]


def test_slice_read_semantics():
    check_program("function y = f(x)\ny = x(2:4);\nend", ARGS_V6,
                  [np.arange(1.0, 7.0).reshape(1, -1)])


def test_slice_read_with_step():
    check_program("function y = f(x)\ny = x(1:2:5);\nend", ARGS_V6,
                  [np.arange(1.0, 7.0).reshape(1, -1)])


def test_slice_write_semantics():
    src = "function y = f(x)\ny = zeros(1, 8);\ny(3:8) = x;\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


def test_slice_write_scalar_broadcast():
    src = "function y = f(x)\ny = zeros(1, 6);\ny(2:4) = x(1);\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


def test_colon_write():
    src = "function y = f(x)\ny = zeros(1, 6);\ny(:) = x;\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


def test_gather_via_index_vector():
    src = "function y = f(x)\nidx = [5 1 3];\ny = x(idx);\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


def test_two_dimensional_region_copy():
    src = "function B = f(A)\nB = A(1:2, 2:3);\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 4))]
    check_program(src, args, [np.arange(12.0).reshape(3, 4)])


def test_matrix_literal_concat():
    src = "function y = f(a, b)\ny = [a 9 b];\nend"
    args = [MType(DType.DOUBLE, False, Shape(1, 2)),
            MType(DType.DOUBLE, False, Shape(1, 3))]
    check_program(src, args,
                  [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0, 5.0]])])


def test_vertical_concat():
    src = "function y = f(a)\ny = [a; a .* 2];\nend"
    args = [MType(DType.DOUBLE, False, Shape(1, 3))]
    check_program(src, args, [np.array([[1.0, 2.0, 3.0]])])


def test_range_materialization():
    check_program("function y = f()\ny = 2:3:14;\nend", [], [])


def test_fractional_range_loop():
    src = """
function s = f()
s = 0;
for t = 0:0.25:1
    s = s + t;
end
end
"""
    check_program(src, [], [])


def test_countdown_loop():
    src = """
function y = f(x)
y = zeros(1, 6);
j = 1;
for k = 6:-1:1
    y(j) = x(k);
    j = j + 1;
end
end
"""
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


def test_matrix_transpose_semantics():
    src = "function B = f(A)\nB = A';\nend"
    args = [MType(DType.DOUBLE, False, Shape(2, 3))]
    check_program(src, args, [np.arange(6.0).reshape(2, 3)])


def test_conjugate_transpose_of_complex():
    src = "function B = f(A)\nB = A';\nend"
    args = [MType(DType.DOUBLE, True, Shape(2, 2))]
    data = np.array([[1 + 2j, 3 - 1j], [0 + 1j, 2 + 2j]])
    check_program(src, args, [data])


def test_reshape_preserves_column_order():
    src = "function B = f(A)\nB = reshape(A, 2, 6);\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 4))]
    check_program(src, args, [np.arange(12.0).reshape(3, 4)])


def test_fliplr_flipud():
    src = "function [L, U] = f(A)\nL = fliplr(A);\nU = flipud(A);\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 4))]
    check_program(src, args, [np.arange(12.0).reshape(3, 4)], nargout=2)


def test_eye_and_linspace():
    src = "function [I, L] = f()\nI = eye(3);\nL = linspace(0, 1, 5);\nend"
    check_program(src, [], [], nargout=2)


def test_matrix_reduction_rows():
    src = "function s = f(A)\ns = sum(A);\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 4))]
    check_program(src, args, [np.arange(12.0).reshape(3, 4)])


def test_matrix_reduction_dim2():
    src = "function s = f(A)\ns = sum(A, 2);\nend"
    args = [MType(DType.DOUBLE, False, Shape(3, 4))]
    check_program(src, args, [np.arange(12.0).reshape(3, 4)])


def test_minmax_with_index_output():
    src = "function [v, i] = f(x)\n[v, i] = max(x);\nend"
    check_program(src, ARGS_V6,
                  [np.array([[3.0, 9.0, 1.0, 9.0, 2.0, 0.0]])], nargout=2)


def test_min_value_only():
    src = "function v = f(x)\nv = min(x);\nend"
    check_program(src, ARGS_V6,
                  [np.array([[3.0, -9.0, 1.0, 9.0, 2.0, 0.0]])])


def test_mean_and_dot():
    src = "function [m, d] = f(x)\nm = mean(x);\nd = dot(x, x);\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)],
                  nargout=2)


def test_complex_dot_conjugates_first_argument():
    src = "function d = f(a, b)\nd = dot(a, b);\nend"
    args = [MType(DType.DOUBLE, True, Shape(1, 4)),
            MType(DType.DOUBLE, True, Shape(1, 4))]
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    b = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    check_program(src, args, [a, b])


def test_early_return():
    src = """
function y = f(c)
y = 1;
if c > 0
    return
end
y = 2;
end
"""
    check_program(src, [MType.double()], [5.0])
    check_program(src, [MType.double()], [-5.0])


def test_break_and_continue():
    src = """
function s = f(x)
s = 0;
for k = 1:length(x)
    if x(k) < 0
        continue
    end
    if x(k) > 100
        break
    end
    s = s + x(k);
end
end
"""
    check_program(src, ARGS_V6,
                  [np.array([[1.0, -2.0, 3.0, 200.0, 5.0, 6.0]])])


def test_scalar_output_also_input():
    src = "function x = f(x)\nx = x + 1;\nend"
    check_program(src, [MType.double()], [41.0])


def test_array_output_also_input():
    src = "function x = f(x)\nx(1) = 99;\nend"
    check_program(src, ARGS_V6, [np.arange(1.0, 7.0).reshape(1, -1)])


# ----------------------------------------------------------------------
# Array operands materialized once, ahead of the loop that reads them
# ----------------------------------------------------------------------

#: name -> (source, arg shapes, simulated cycles of the optimized and
#: the baseline build on vliw_simd_dsp when the temporary was rebuilt on
#: every iteration of the loop reading it)
_MATERIALIZED_OPERANDS = {
    "dot": ("function y = f(a, b)\ny = dot(a, b + 1);\nend\n",
            ((1, 8), (1, 8)), (194, 522)),
    "gather": ("function y = f(a, b)\ny = a(b + 1);\nend\n",
               ((1, 8), (1, 8)), (208, 528)),
    "gather_2d": ("function y = f(a, b)\ny = a(b + 1, 1);\nend\n",
                  ((8, 1), (1, 8)), (226, 570)),
    "scatter": ("function a = f(a, b)\na(b + 1) = 5;\nend\n",
                ((1, 8), (1, 8)), (224, 544)),
}


def _loops_writing(body, prefix):
    """(loop, depth) of every ForRange whose own body stores into an
    array named ``prefix``..."""
    found = []

    def walk(stmts, depth):
        for stmt in stmts:
            if isinstance(stmt, ir.ForRange):
                if any(isinstance(s, ir.Store) and s.array.startswith(prefix)
                       for s in stmt.body):
                    found.append((stmt, depth))
                walk(stmt.body, depth + 1)
            elif isinstance(stmt, ir.If):
                walk(stmt.then_body + stmt.else_body, depth)
            elif isinstance(stmt, ir.While):
                walk(stmt.body, depth + 1)

    walk(body, 0)
    return found


@pytest.mark.parametrize("name", sorted(_MATERIALIZED_OPERANDS))
@pytest.mark.parametrize("mode", ["fused", "naive"])
def test_array_operand_is_materialized_once_before_its_loop(name, mode):
    source, shapes, _ = _MATERIALIZED_OPERANDS[name]
    module = lower(source, "f", [MType(DType.DOUBLE, False, Shape(*shape))
                                 for shape in shapes], mode=mode)
    loops = _loops_writing(module.entry_function.body, "_arr")
    assert [depth for _, depth in loops] == [0], format_module(module)


@pytest.mark.parametrize("name", sorted(_MATERIALIZED_OPERANDS))
def test_materialized_operand_matches_interpreter_in_fewer_cycles(name):
    source, shapes, before = _MATERIALIZED_OPERANDS[name]
    a = np.arange(1.0, 9.0).reshape(shapes[0])
    b = np.array([[3.0, 0.0, 7.0, 1.0, 2.0, 6.0, 5.0, 4.0]])
    args = [arg(shape) for shape in shapes]
    check_program(source, args, [a, b])
    for options, parent_cycles in zip(
            (CompilerOptions(), CompilerOptions.baseline()), before):
        result = compile_source(source, args, options=options,
                                use_cache=False)
        assert result.simulate([a, b]).report.total < parent_cycles


def test_scatter_indexed_by_its_own_values_matches_interpreter():
    # MATLAB builds the index vector before any element is stored.
    # Rebuilding it inside the store loop read elements the loop had
    # already overwritten: 1 7 3 7 5 7 7 7 instead of all sevens.
    source = "function b = f(b)\nb(b + 1) = 7;\nend\n"
    _, outputs = check_program(
        source, [arg((1, 8))], [np.array([[1.0, 2, 3, 4, 5, 6, 7, 0]])])
    assert np.array_equal(np.asarray(outputs[0]), np.full((1, 8), 7.0))
