"""Table tests of the shared index analysis (``repro.ir.affine``) over
the index shapes the lowerer and the passes build."""

import pytest

from repro.ir import nodes as ir
from repro.ir.affine import Affine, affine, scalar_reads, trip_count
from repro.ir.types import F64, I32, ScalarKind, ScalarType


def var(name, ty=I32):
    return ir.VarRef(ty, name)


def const(value, ty=I32):
    return ir.Const(ty, value)


def binop(op, left, right, ty=I32):
    return ir.BinOp(ty, op=op, left=left, right=right)


def cast(ty, operand):
    return ir.Cast(ty, operand=operand)


def load(array, index, ty=F64):
    return ir.Load(ty, array=array, index=index)


i, j, k = var("i"), var("j"), var("k")
# MATLAB's ``z(i + k)`` for a double ``k``: cast<i32>(cast<f64>(i) + k) - 1.
CAST_CHAIN = binop("sub", cast(I32, binop("add", cast(F64, i),
                                          var("k", F64), F64)),
                   const(1))

# (index, loop variables, names the loop writes, arrays the loop
# writes, expected form)
CASES = {
    "column_major": (binop("add", i, binop("mul", j, const(3))),
                     ("i", "j"), set(), set(), Affine({"i": 1, "j": 3})),
    "column_major_outer_invariant": (
        binop("add", i, binop("mul", j, const(3))), ("i",), set(), set(),
        Affine({"i": 1}, terms=((3, j),))),
    "column_major_symbolic_rows": (
        binop("add", i, binop("mul", j, var("m"))), ("i", "j"), set(),
        set(), None),
    "reversed": (binop("sub", const(31), k), ("k",), set(), set(),
                 Affine({"k": -1}, 31)),
    "reversed_symbolic": (binop("sub", var("n"), k), ("k",), set(), set(),
                          Affine({"k": -1}, terms=((1, var("n")),))),
    "negated": (ir.UnOp(I32, op="neg", operand=i), ("i",), set(), set(),
                Affine({"i": -1})),
    "cast_chain": (CAST_CHAIN, ("i",), set(), set(),
                   Affine({"i": 1}, -1, ((1, var("k", F64)),))),
    "cast_chain_loop_written": (CAST_CHAIN, ("i",), {"k"}, set(), None),
    "cse_temporary": (binop("add", const(4), var("cse1")), ("k",), set(),
                      set(), Affine({}, 4, ((1, var("cse1")),))),
    "invariant_product": (
        binop("add", i, binop("mul", var("m"), binop("add", j, const(1)))),
        ("i",), set(), set(),
        Affine({"i": 1}, terms=((1, binop("mul", var("m"),
                                          binop("add", j, const(1)))),))),
    "cse_temporary_loop_written": (binop("add", const(4), var("cse1")),
                                   ("k",), {"cse1"}, set(), None),
    # inv3x3's row stores into its 9-row output.
    "stride_rows": (binop("add", const(1), binop("mul", j, const(9))),
                    ("j",), set(), set(), Affine({"j": 9}, 1)),
    "cancelling": (binop("sub", i, i), ("i",), set(), set(), Affine({})),
    "product_of_loop_vars": (binop("mul", i, j), ("i", "j"), set(), set(),
                             None),
    "division": (binop("div", i, const(2)), ("i",), set(), set(), None),
    "gather": (binop("add", i, load("p", i, I32)), ("i",), set(), set(),
               None),
    "load_of_written_array": (binop("add", i, load("y", const(0), I32)),
                              ("i",), set(), {"y"}, None),
    # int8(i) saturates, so it does not move with i.
    "narrowing_cast": (cast(I32, cast(ScalarType(ScalarKind.I8), i)),
                       ("i",), set(), set(), None),
    "load_of_unwritten_array": (
        binop("add", i, load("p", const(0), I32)), ("i",), set(), {"y"},
        Affine({"i": 1}, terms=((1, load("p", const(0), I32)),))),
}


@pytest.mark.parametrize("name", CASES)
def test_affine_forms(name):
    index, loop_vars, names, arrays, expected = CASES[name]
    assert affine(index, loop_vars, names, arrays) == expected


def test_scalar_reads():
    math = ir.MathCall(F64, name="sqrt", args=[var("x", F64)])
    assert scalar_reads(binop("add", i, math)) == {"i", "x"}
    assert scalar_reads(binop("add", i, load("p", j, I32))) is None
    assert scalar_reads(ir.IntrinsicCall(F64, args=[var("x", F64)])) is None


@pytest.mark.parametrize("start, stop, step, trips", [
    (0, 10, 1, 10),
    (0, 10, 3, 4),
    (10, 0, -2, 5),
    (5, 5, 1, 0),
    (5, 0, 1, 0),
    (0, 5, -1, 0),
])
def test_trip_count_of_constant_bounds(start, stop, step, trips):
    loop = ir.ForRange(var="i", start=const(start), stop=const(stop),
                       step=step)
    assert trip_count(loop) == trips


def test_trip_count_of_runtime_bounds_is_unknown():
    assert trip_count(ir.ForRange(var="i", start=const(0), stop=var("n"))) \
        is None
    assert trip_count(ir.ForRange(var="i", start=var("n"), stop=const(8),
                                  step=-1)) is None
