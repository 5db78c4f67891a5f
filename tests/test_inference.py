"""Unit tests for type/shape inference and function specialization."""

import pytest

from repro.compiler import arg, compile_source
from repro.errors import LoweringError, SemanticError, UnsupportedFeatureError
from repro.frontend.parser import parse
from repro.mlab.interp import MatlabInterpreter
from repro.semantics.inference import _FunctionAnalyzer, specialize_program
from repro.semantics.shapes import Shape
from repro.semantics.types import DType, MType


def infer(source: str, entry: str, args: list[MType]):
    return specialize_program(parse(source), entry, args)


def arg_row(n: int, dtype=DType.DOUBLE, complex_=False) -> MType:
    return MType(dtype, complex_, Shape(1, n))


def var_type(spec, name: str) -> MType:
    return spec.final_env.lookup(name).mtype


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------


def test_identity_function():
    sp = infer("function y = f(x)\ny = x;\nend", "f", [arg_row(8)])
    assert sp.entry.result_types[0].shape == Shape(1, 8)


def test_scalar_arithmetic_types():
    sp = infer("function y = f(a, b)\ny = a * b + 2;\nend", "f",
               [MType.double(), MType.double()])
    assert sp.entry.result_types[0].is_scalar


def test_constant_propagation_through_length():
    src = "function y = f(x)\nn = length(x);\ny = zeros(1, n);\nend"
    sp = infer(src, "f", [arg_row(12)])
    assert sp.entry.result_types[0].shape == Shape(1, 12)
    assert var_type(sp.entry, "n").value == 12.0


def test_constant_arithmetic_propagates_to_shapes():
    src = "function y = f(x)\ny = zeros(2, length(x) * 2 + 1);\nend"
    sp = infer(src, "f", [arg_row(5)])
    assert sp.entry.result_types[0].shape == Shape(2, 11)


def test_matrix_product_shapes():
    src = "function C = f(A, B)\nC = A * B;\nend"
    sp = infer(src, "f", [MType(DType.DOUBLE, False, Shape(2, 3)),
                          MType(DType.DOUBLE, False, Shape(3, 7))])
    assert sp.entry.result_types[0].shape == Shape(2, 7)


def test_matrix_product_mismatch_rejected():
    src = "function C = f(A, B)\nC = A * B;\nend"
    with pytest.raises(SemanticError, match="inner dimensions"):
        infer(src, "f", [MType(DType.DOUBLE, False, Shape(2, 3)),
                         MType(DType.DOUBLE, False, Shape(4, 7))])


def test_elementwise_shape_conflict_rejected():
    src = "function y = f(a, b)\ny = a + b;\nend"
    with pytest.raises(SemanticError, match="do not conform"):
        infer(src, "f", [arg_row(4), arg_row(5)])


def test_transpose_shape():
    sp = infer("function y = f(x)\ny = x';\nend", "f", [arg_row(6)])
    assert sp.entry.result_types[0].shape == Shape(6, 1)


def test_range_shape():
    sp = infer("function y = f()\ny = 1:2:9;\nend", "f", [])
    assert sp.entry.result_types[0].shape == Shape(1, 5)


def test_matrix_literal_shape():
    sp = infer("function m = f()\nm = [1 2 3; 4 5 6];\nend", "f", [])
    assert sp.entry.result_types[0].shape == Shape(2, 3)


def test_concat_of_vectors():
    sp = infer("function y = f(a, b)\ny = [a b];\nend", "f",
               [arg_row(3), arg_row(4)])
    assert sp.entry.result_types[0].shape == Shape(1, 7)


def test_slice_shapes():
    src = "function y = f(x)\ny = x(2:5);\nend"
    sp = infer(src, "f", [arg_row(10)])
    assert sp.entry.result_types[0].shape == Shape(1, 4)


def test_colon_slice_shape():
    src = "function y = f(A)\ny = A(:, 2);\nend"
    sp = infer(src, "f", [MType(DType.DOUBLE, False, Shape(4, 5))])
    assert sp.entry.result_types[0].shape == Shape(4, 1)


def test_end_resolution():
    src = "function y = f(x)\ny = x(end);\nend"
    sp = infer(src, "f", [arg_row(9)])
    assert sp.entry.result_types[0].is_scalar


def test_linear_colon_of_matrix():
    src = "function y = f(A)\ny = A(:);\nend"
    sp = infer(src, "f", [MType(DType.DOUBLE, False, Shape(3, 4))])
    assert sp.entry.result_types[0].shape == Shape(12, 1)


# ----------------------------------------------------------------------
# Control flow and fixpoints
# ----------------------------------------------------------------------


def test_loop_promotes_real_to_complex():
    src = """
function s = f(z)
s = 0;
for k = 1:length(z)
    s = s + z(k);
end
end
"""
    sp = infer(src, "f", [arg_row(4, complex_=True)])
    assert sp.entry.result_types[0].is_complex


def test_store_promotes_array_to_complex():
    src = """
function y = f(z)
y = zeros(1, length(z));
for k = 1:length(z)
    y(k) = z(k) * 2;
end
end
"""
    sp = infer(src, "f", [arg_row(4, complex_=True)])
    assert sp.entry.result_types[0].is_complex


def test_branch_join_types():
    src = """
function y = f(c)
if c > 0
    y = 1;
else
    y = complex(0, 1);
end
end
"""
    sp = infer(src, "f", [MType.double()])
    assert sp.entry.result_types[0].is_complex


def test_static_branch_pruning():
    src = """
function y = f(x)
if size(x, 1) > 1
    y = zeros(3, 1);
else
    y = zeros(1, 3);
end
end
"""
    sp = infer(src, "f", [arg_row(5)])
    assert sp.entry.result_types[0].shape == Shape(1, 3)
    assert len(sp.entry.static_branches) == 1


def test_static_branch_else_selected():
    src = """
function y = f(x)
if length(x) > 100
    y = zeros(1, 1);
else
    y = zeros(1, 2);
end
end
"""
    sp = infer(src, "f", [arg_row(5)])
    assert sp.entry.result_types[0].shape == Shape(1, 2)
    assert list(sp.entry.static_branches.values()) == [-1]


def test_dynamic_branch_not_pruned():
    src = """
function y = f(c)
if c > 0
    y = 1;
else
    y = 2;
end
end
"""
    sp = infer(src, "f", [MType.double()])
    assert sp.entry.static_branches == {}


def test_while_fixpoint():
    src = """
function n = f(x)
n = 1;
while n < length(x)
    n = n * 2;
end
end
"""
    sp = infer(src, "f", [arg_row(100)])
    assert sp.entry.result_types[0].is_scalar
    assert sp.entry.result_types[0].value is None


def test_loop_variable_after_loop():
    src = "function y = f()\nfor k = 1:5\nend\ny = k;\nend"
    sp = infer(src, "f", [])
    assert sp.entry.result_types[0].is_scalar


def _inner_statement_inferences(depth: int, monkeypatch) -> int:
    """How often a ``depth``-deep ``for`` nest's innermost statement is
    inferred; every type in the nest is stable from the first round."""
    loop_vars = "ijkl"[:depth]
    src = ("function s = f(x)\ns = 0;\n"
           + "".join(f"for {v} = 1:4\n" for v in loop_vars)
           + f"s = s + x({loop_vars[0]});\n" + "end\n" * depth + "end\n")
    program = parse(src)
    stmt = program.functions[0].body[1]
    for _ in range(depth):
        stmt = stmt.body[0]
    calls = []
    original = _FunctionAnalyzer.infer_stmt

    def counting(self, node, env):
        calls.append(node is stmt)
        return original(self, node, env)

    monkeypatch.setattr(_FunctionAnalyzer, "infer_stmt", counting)
    specialize_program(program, "f", [arg_row(4)])
    return sum(calls)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_loop_nest_inference_is_linear_in_depth(depth, monkeypatch):
    # Each loop's first round meets its new loop variable and a second
    # round proves the env stable; that round's node types are final,
    # so nothing re-infers the body (which cost 2**(depth + 1) - 1).
    assert _inner_statement_inferences(depth, monkeypatch) == depth + 1


def _chain(loop_head: str, last: str, n: int = 20) -> str:
    # Each round lets a type change of v20 reach one more of v19 ... v1,
    # so the loop env needs about n rounds to reach its fixpoint.
    return ("function y = f(k)\n"
            + "".join(f"v{i} = 0;\n" for i in range(1, n + 1))
            + "c = 0;\n" + loop_head + "\nc = c + 1;\n"
            + "".join(f"v{i} = v{i + 1};\n" for i in range(1, n))
            + last + "\nend\ny = v1;\nend\n")


@pytest.mark.parametrize("loop_head", ["for i = 1:k", "while c < k"])
def test_long_complex_chain_reaches_its_fixpoint(loop_head):
    source = _chain(loop_head, "v20 = complex(real(v20) + 1, 1);")
    assert infer(source, "f", [MType.double()]).entry.result_types[0].is_complex
    result = compile_source(source, [arg()])
    golden = MatlabInterpreter(source).call("f", [25.0])
    assert result.simulate([25.0]).outputs[0] == golden[0][0, 0] == 6 + 1j


def _growing_chain(loop_head: str) -> str:
    return _chain(loop_head, "v20 = [v20, 1];")


# A growing array stabilizes at an unknown length, which the lowering
# cannot allocate: that, not the fixpoint, rejects these loops.
def test_for_loop_that_keeps_growing_does_not_stabilize():
    with pytest.raises(LoweringError, match="not fully known at compile"):
        compile_source(_growing_chain("for i = 1:k"), [arg()])


def test_while_loop_that_keeps_growing_does_not_stabilize():
    with pytest.raises(LoweringError, match="not fully known at compile"):
        compile_source(_growing_chain("while numel(v1) < k"), [arg()])


# ----------------------------------------------------------------------
# Calls and specialization
# ----------------------------------------------------------------------


def test_user_function_specialization():
    src = """
function y = top(a, b)
y = helper(a) + helper(b);
end
function y = helper(x)
y = x * 2;
end
"""
    sp = infer(src, "top", [arg_row(4), arg_row(4)])
    helper_specs = [k for k in sp.functions if k.startswith("helper")]
    assert len(helper_specs) == 1  # same signature, one specialization


def test_specialization_per_shape():
    src = """
function y = top(a, b)
y = total(a) + total(b);
end
function s = total(x)
s = sum(x);
end
"""
    sp = infer(src, "top", [arg_row(4), arg_row(9)])
    total_specs = [k for k in sp.functions if k.startswith("total")]
    assert len(total_specs) == 2


def test_value_specialization_on_constants():
    src = """
function y = top(x)
y = make(length(x));
end
function y = make(n)
y = zeros(1, n);
end
"""
    sp = infer(src, "top", [arg_row(7)])
    assert sp.entry.result_types[0].shape == Shape(1, 7)


def test_multiple_return_values():
    src = """
function [lo, hi] = bounds(x)
lo = min(x);
hi = max(x);
end
"""
    sp = infer(src, "bounds", [arg_row(5)])
    assert len(sp.entry.result_types) == 2


def test_library_fft_resolves():
    src = "function X = f(x)\nX = fft(x);\nend"
    sp = infer(src, "f", [arg_row(16)])
    assert sp.entry.result_types[0].is_complex
    assert any(key.startswith("fft") for key in sp.functions)


def test_user_function_shadows_library():
    src = """
function y = f(x)
y = conv(x, x);
end
function y = conv(a, b)
y = a + b;
end
"""
    sp = infer(src, "f", [arg_row(4)])
    # User conv returns the elementwise sum's shape, not len 7.
    assert sp.entry.result_types[0].shape == Shape(1, 4)


def test_recursion_rejected():
    src = "function y = f(x)\ny = f(x);\nend"
    with pytest.raises(UnsupportedFeatureError, match="recursive"):
        infer(src, "f", [MType.double()])


def test_wrong_argument_count():
    src = "function y = f(a, b)\ny = a + b;\nend"
    with pytest.raises(SemanticError, match="expects 2"):
        infer(src, "f", [MType.double()])


def test_unknown_function():
    src = "function y = f(x)\ny = nosuchfn(x);\nend"
    with pytest.raises(SemanticError, match="undefined"):
        infer(src, "f", [MType.double()])


def test_output_never_assigned():
    src = "function y = f(x)\nz = x;\nend"
    with pytest.raises(SemanticError, match="never assigned"):
        infer(src, "f", [MType.double()])


# ----------------------------------------------------------------------
# Assignment rules
# ----------------------------------------------------------------------


def test_indexed_store_requires_preallocation():
    src = "function y = f(x)\ny(3) = x;\nend"
    with pytest.raises(SemanticError, match="preallocate"):
        infer(src, "f", [MType.double()])


def test_indexed_store_shape_mismatch():
    src = """
function y = f(x)
y = zeros(1, 10);
y(1:3) = x;
end
"""
    with pytest.raises(SemanticError, match="shape mismatch"):
        infer(src, "f", [arg_row(5)])


def test_multi_assign_from_size():
    src = "function [m, n] = f(A)\n[m, n] = size(A);\nend"
    sp = infer(src, "f", [MType(DType.DOUBLE, False, Shape(3, 8))])
    assert sp.entry.final_env.lookup("m").mtype.value == 3.0
    assert sp.entry.final_env.lookup("n").mtype.value == 8.0


def test_multi_assign_minmax():
    src = "function [v, i] = f(x)\n[v, i] = max(x);\nend"
    sp = infer(src, "f", [arg_row(6)])
    assert len(sp.entry.result_types) == 2


def test_anonymous_function_rejected():
    src = "function y = f(x)\ng = @(t) t + 1;\ny = g(x);\nend"
    with pytest.raises(UnsupportedFeatureError, match="anonymous"):
        infer(src, "f", [MType.double()])


def test_logical_index_rejected():
    src = "function y = f(x)\ny = x(x > 0);\nend"
    with pytest.raises(UnsupportedFeatureError, match="logical indexing"):
        infer(src, "f", [arg_row(4)])


def test_fft_non_power_of_two_rejected():
    src = "function X = f(x)\nX = fft(x);\nend"
    with pytest.raises(Exception, match="power of two"):
        infer(src, "f", [arg_row(12)])


def test_builtin_arity_checked():
    src = "function y = f(x)\ny = sqrt(x, x);\nend"
    with pytest.raises(SemanticError, match="argument"):
        infer(src, "f", [MType.double()])


def test_single_times_double_stays_single():
    src = "function y = f(x)\ny = x * 2.0;\nend"
    sp = infer(src, "f", [MType.scalar(DType.SINGLE)])
    assert sp.entry.result_types[0].dtype is DType.SINGLE


def test_comparison_is_logical():
    src = "function y = f(a)\ny = a > 0;\nend"
    sp = infer(src, "f", [MType.double()])
    assert sp.entry.result_types[0].dtype is DType.LOGICAL


def test_zero_arg_builtin_without_parens():
    src = "function y = f()\ny = pi;\nend"
    sp = infer(src, "f", [])
    assert abs(var_type(sp.entry, "y").value) > 3.14  # constant tracked
