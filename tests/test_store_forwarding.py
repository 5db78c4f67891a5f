"""Constant element-store forwarding and DCE's store sweep.

Constant propagation forwards ``A[i] = c`` to a later ``A[i]`` of the
same straight-line loop body; DCE then drops element stores into local
arrays nothing reads.  Together they turn the fused
``complex(zeros(1, n), zeros(1, n))`` fill into one ``c128`` store the
vectorizer takes.
"""

from __future__ import annotations

import numpy as np

from helpers import check_program
from repro.compiler import arg, compile_source
from repro.ir import nodes as ir
from repro.ir.passes.constant_folding import ConstantFolding
from repro.ir.passes.dce import DeadCodeElimination
from repro.ir.passes.propagation import ConstantPropagation
from repro.ir.printer import format_function
from repro.ir.types import I32, ArrayType, ScalarKind, ScalarType

F64 = ScalarType(ScalarKind.F64)
C128 = ScalarType(ScalarKind.C128)
ROW = ArrayType(F64, 1, 4)


def var(name: str) -> ir.VarRef:
    return ir.VarRef(I32, name)


def const(value: int) -> ir.Const:
    return ir.Const(I32, value)


def zero() -> ir.Const:
    return ir.Const(F64, 0.0)


def load(array: str, index: ir.Expr) -> ir.Load:
    return ir.Load(F64, array, index)


def loop(name: str, *body: ir.Stmt) -> ir.ForRange:
    return ir.ForRange(name, const(0), const(4), 1, list(body))


def function(*body: ir.Stmt, outputs=("y",)) -> ir.IRFunction:
    local_types = {"t": ROW, "u": ROW, "idx": ArrayType(I32, 1, 4),
                   "k": I32, "j": I32, "m": I32, "c": I32}
    return ir.IRFunction(
        name="f", params=[ir.Param("a", ROW)],
        outputs=[ir.Param(name, ROW, True) for name in outputs],
        locals=local_types, body=list(body))


def read_into_y(read: ir.Expr) -> ir.Store:
    return ir.Store("y", var("k"), read)


def propagate(func: ir.IRFunction) -> bool:
    return ConstantPropagation().run(func)


# ----------------------------------------------------------------------
# Forwarding
# ----------------------------------------------------------------------


def test_forwards_a_constant_store_to_a_later_load_of_the_element():
    # Equal indices built as distinct trees still match.
    index = ir.BinOp(I32, "add", var("k"), const(1))
    func = function(loop("k", ir.Store("t", index, zero()),
                         ir.AssignVar("m", var("k")),
                         read_into_y(load("t", ir.BinOp(
                             I32, "add", var("k"), const(1))))))
    assert propagate(func)
    assert func.body[0].body[2].value == zero()


def test_fill_loop_folds_to_one_complex_store():
    """The fused body of ``complex(zeros(1, 4), zeros(1, 4))``."""
    func = function(loop(
        "k", ir.Store("t", var("k"), zero()),
        ir.Store("u", var("k"), zero()),
        ir.Store("h", var("k"), ir.MakeComplex(
            C128, load("t", var("k")), load("u", var("k"))))),
        outputs=())
    func.outputs = [ir.Param("h", ArrayType(C128, 1, 4), True)]
    for pass_ in (ConstantPropagation(), ConstantFolding(),
                  DeadCodeElimination()):
        assert pass_.run(func)
    (store,) = func.body[0].body
    assert store.array == "h" and store.value == ir.Const(C128, 0j)
    assert not {"t", "u"} & set(func.locals)


def _refused(func: ir.IRFunction) -> None:
    before = format_function(func)
    assert not propagate(func)
    assert format_function(func) == before


def test_refuses_a_different_index():
    _refused(function(loop("k", ir.Store("t", var("k"), zero()),
                           read_into_y(load("t", const(0))))))


def test_refuses_across_a_store_to_the_array():
    _refused(function(loop("k", ir.Store("t", var("k"), zero()),
                           ir.Store("t", var("m"), load("a", var("k"))),
                           read_into_y(load("t", var("k"))))))


def test_refuses_across_a_reassigned_index_variable():
    _refused(function(loop("k", ir.Store("t", var("m"), zero()),
                           ir.AssignVar("m", ir.BinOp(I32, "add", var("m"),
                                                      const(1))),
                           read_into_y(load("t", var("m"))))))


def test_refuses_an_index_that_reads_an_array():
    at = ir.Load(I32, "idx", var("k"))
    _refused(function(loop("k", ir.Store("t", at, zero()),
                           ir.Store("idx", var("k"), var("m")),
                           read_into_y(load("t", ir.Load(I32, "idx",
                                                         var("k")))))))


def test_refuses_a_load_inside_a_nested_loop_or_branch():
    _refused(function(loop("k", ir.Store("t", var("k"), zero()),
                           loop("j", read_into_y(load("t", var("k")))))))
    _refused(function(loop("k", ir.Store("t", var("k"), zero()),
                           ir.If(ir.BinOp(I32, "gt", var("c"), const(0)),
                                 [read_into_y(load("t", var("k")))], []))))


def test_refuses_after_nested_control_flow_or_a_call():
    nested = ir.If(ir.BinOp(I32, "gt", var("c"), const(0)),
                   [ir.AssignVar("m", const(1))], [])
    _refused(function(loop("k", ir.Store("t", var("k"), zero()), nested,
                           read_into_y(load("t", var("k"))))))
    _refused(function(loop("k", ir.Store("t", var("k"), zero()),
                           ir.Call("g", ["t"], ["u"]),
                           read_into_y(load("t", var("k"))))))


def test_refuses_a_non_constant_value():
    _refused(function(loop("k", ir.Store("t", var("k"), load("a", var("k"))),
                           read_into_y(load("t", var("k"))))))


def test_forwards_only_inside_loop_bodies():
    _refused(function(ir.Store("t", const(0), zero()),
                      ir.Store("y", const(0), load("t", const(0)))))


# ----------------------------------------------------------------------
# DCE's store sweep
# ----------------------------------------------------------------------


def test_dce_drops_stores_to_an_unread_local_in_a_live_loop():
    func = function(loop("k", ir.Store("t", var("k"), zero()),
                         read_into_y(load("a", var("k")))))
    assert DeadCodeElimination().run(func)
    assert [stmt.array for stmt in func.body[0].body] == ["y"]
    assert "t" not in func.locals


def test_dce_keeps_stores_to_params_outputs_and_call_arguments():
    func = function(
        loop("k", ir.Store("a", var("k"), zero()),
             ir.Store("y", var("k"), zero()),
             ir.Store("t", var("k"), zero())),
        ir.Call("g", ["t"], ["u"]))
    stores = [stmt.array for stmt in func.body[0].body]
    DeadCodeElimination().run(func)
    assert [stmt.array for stmt in func.body[0].body] == stores


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

FILL = """function h = f(x)
n = length(x);
h = complex(zeros(1, n), zeros(1, n));
for k = 1:n
    h(k) = h(k) * 2 + x(k);
end
end
"""


def test_complex_zeros_fill_vectorizes_on_the_simd_target():
    args = [arg((1, 16), complex=True)]
    result = compile_source(FILL, args=args, processor="vliw_simd_dsp",
                            use_cache=False)
    fill = [remark.to_dict() for remark in result.remarks
            if remark.pass_name == "simd-vectorize" and remark.line == 3]
    assert [remark["kind"] for remark in fill] == ["passed"]
    assert "c128" in fill[0]["message"]
    x = np.arange(16) + 1j * np.arange(16)[::-1]
    check_program(FILL, args, [x.reshape(1, 16)], with_gcc=True)
